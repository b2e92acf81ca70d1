package metrics

import (
	"math/bits"
	"time"
)

// numBuckets is the histogram resolution: bucket i covers durations in
// (1µs·2^(i-1), 1µs·2^i], so the top bucket reaches past half an hour.
const numBuckets = 32

func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for sub-µs, else 1+floor(log2(µs))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// bucketBound is the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// Hist is the one bucketed duration distribution of the harness: the
// registry's histograms, the fleet snapshot's stage latencies and every
// shard merge use it. Buckets are exponential (bucket i covers
// (1µs·2^(i-1), 1µs·2^i]) and trailing empty buckets are never stored,
// so the serialized form stays short; Merge handles the ragged lengths.
// Hist is not synchronized: callers guard it with their own lock.
type Hist struct {
	Buckets []int64 `json:"buckets,omitempty"`
	Count   int64   `json:"count"`
	SumNS   int64   `json:"sum_ns"`
	MinNS   int64   `json:"min_ns"`
	MaxNS   int64   `json:"max_ns"`
}

// Observe folds one duration into the distribution (negative durations
// count as zero).
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketOf(d)
	if i >= len(h.Buckets) {
		h.Buckets = append(h.Buckets, make([]int64, i+1-len(h.Buckets))...)
	}
	h.Buckets[i]++
	h.Count++
	h.SumNS += int64(d)
	if h.Count == 1 || int64(d) < h.MinNS {
		h.MinNS = int64(d)
	}
	if int64(d) > h.MaxNS {
		h.MaxNS = int64(d)
	}
}

// Merge adds o's observations into h, bucket for bucket.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.Count == 0 {
		return
	}
	if len(o.Buckets) > len(h.Buckets) {
		h.Buckets = append(h.Buckets, make([]int64, len(o.Buckets)-len(h.Buckets))...)
	}
	for i, n := range o.Buckets {
		h.Buckets[i] += n
	}
	if h.Count == 0 || o.MinNS < h.MinNS {
		h.MinNS = o.MinNS
	}
	if o.MaxNS > h.MaxNS {
		h.MaxNS = o.MaxNS
	}
	h.Count += o.Count
	h.SumNS += o.SumNS
}

// Clone returns a deep copy of h.
func (h *Hist) Clone() *Hist {
	c := *h
	c.Buckets = append([]int64(nil), h.Buckets...)
	return &c
}

// Mean is the average observed duration.
func (h *Hist) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// Quantile returns the upper bound of the bucket holding the q-th
// observation, clamped to the exact observed extremes.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			return max(min(bucketBound(i), time.Duration(h.MaxNS)), time.Duration(h.MinNS))
		}
	}
	return time.Duration(h.MaxNS)
}

// Stats summarizes the distribution.
func (h *Hist) Stats() StageStats {
	s := StageStats{
		Count: h.Count,
		Total: time.Duration(h.SumNS),
		Min:   time.Duration(h.MinNS),
		Max:   time.Duration(h.MaxNS),
	}
	if h.Count == 0 {
		return s
	}
	s.Mean = h.Mean()
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}
