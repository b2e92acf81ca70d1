// Package cluster is the horizontal-scale layer of the vetting service:
// a coordinator that consistent-hash-routes scan submissions by signing
// digest across N worker daemons, proxies result and trace reads to the
// owning node, and federates the fleet telemetry of every node into one
// mergeable measurement snapshot.
//
// Placement is a classic consistent-hash ring with virtual nodes: each
// worker contributes VNodes points (SHA-256 of "node#i"), a digest is
// owned by the first point clockwise of its hash, and removing a node
// moves only the keys that node owned. Membership is explicit-join —
// the operator names every worker up front — with liveness maintained by
// periodic /v1/healthz probes: a node failing K consecutive probes (or
// K consecutive request forwards) is ejected from the ring and rejoins
// automatically once it probes healthy again.
//
// Every federated view (/v1/fleet, /v1/profiles) reads its members
// through one fan-out, fanOut, which names unreachable members instead of
// failing. The coordinator's /v1/events is the events log of the
// federated fleet snapshot, with unreachable members named in the
// X-Dydroid-Nodes-Missing header.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// DefaultVNodes is the virtual-node count per member. 64 points per node
// keeps the ownership share of a small cluster within a few percent of
// uniform while the ring stays tiny (N×64 points).
const DefaultVNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement is
// deterministic: the same member set yields the same ring regardless of
// join order. Ring is not safe for concurrent use; the Coordinator
// guards it with its membership lock.
type Ring struct {
	vnodes int
	points []point
	nodes  map[string]bool
}

// NewRing creates an empty ring with the given virtual-node count per
// member (<=0 picks DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// hash64 maps a label to its ring position.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add joins a node, inserting its virtual points. Adding a member twice
// is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove ejects a node and its virtual points.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether node is currently on the ring.
func (r *Ring) Has(node string) bool { return r.nodes[node] }

// Len is the current member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes lists the current members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// Successors returns up to n distinct members in ring order starting at
// key's owner — the failover sequence for that key.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	var out []string
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Shares returns each member's fraction of the hash space — the expected
// share of scan traffic it owns.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return shares
	}
	const space = float64(math.MaxUint64)
	last := r.points[len(r.points)-1]
	// The arc from the highest point wraps around zero to the first point.
	shares[r.points[0].node] += (float64(r.points[0].hash) + space - float64(last.hash)) / space
	for i := 1; i < len(r.points); i++ {
		shares[r.points[i].node] += float64(r.points[i].hash-r.points[i-1].hash) / space
	}
	return shares
}
