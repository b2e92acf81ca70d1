package main

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns n due offsets of an open-loop arrival process
// at the given mean rate (per second), drawn from rng: independent users
// submitting on their own clock, regardless of how the system keeps up.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// step performs the next request of operation i. It returns done when the
// operation has finished (succeeded or failed), or else the delay before
// its next request (a poll).
type step func(i int) (again time.Duration, done bool)

// openLoop drives len(due) operations, operation i first becoming due at
// start+due[i]. At most senders goroutines issue requests; an operation
// whose due time passes while every sender is busy starts late, and the
// lateness is returned per operation so it can be reported. Latency is
// measured by the caller from the due time, so a stall in the system
// shows in the latency of every operation that became due during it.
func openLoop(start time.Time, due []time.Duration, senders int, fn step) (late []time.Duration) {
	late = make([]time.Duration, len(due))
	q := &actionQueue{}
	for i, d := range due {
		q.items = append(q.items, action{at: start.Add(d), op: i, first: true})
	}
	heap.Init(q)
	var (
		mu      sync.Mutex
		wake    = sync.NewCond(&mu)
		pending = len(due)
		wg      sync.WaitGroup
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			for {
				for q.Len() == 0 && pending > 0 {
					wake.Wait()
				}
				if pending == 0 {
					mu.Unlock()
					return
				}
				a := q.items[0]
				if wait := time.Until(a.at); wait > 0 {
					// Another sender may take this action meanwhile; the
					// queue is re-read after the sleep.
					mu.Unlock()
					time.Sleep(wait)
					mu.Lock()
					continue
				}
				heap.Pop(q)
				mu.Unlock()
				if a.first {
					late[a.op] = time.Since(a.at)
				}
				again, done := fn(a.op)
				mu.Lock()
				if done {
					pending--
					if pending == 0 {
						wake.Broadcast()
					}
				} else {
					heap.Push(q, action{at: time.Now().Add(again), op: a.op})
					wake.Signal()
				}
			}
		}()
	}
	wg.Wait()
	return late
}

type action struct {
	at    time.Time
	op    int
	first bool
}

// actionQueue is a min-heap of actions by time.
type actionQueue struct{ items []action }

func (q *actionQueue) Len() int           { return len(q.items) }
func (q *actionQueue) Less(i, j int) bool { return q.items[i].at.Before(q.items[j].at) }
func (q *actionQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }
func (q *actionQueue) Push(x any)         { q.items = append(q.items, x.(action)) }
func (q *actionQueue) Pop() any {
	n := len(q.items) - 1
	a := q.items[n]
	q.items = q.items[:n]
	return a
}
