package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopStallLandsInLaterLatency stalls the server for 100 ms on
// one request. Operations that became due during the stall must report
// latency that includes the wait, measured from their due time, and the
// generator must report that it ran late, even though each of those
// requests is served quickly once it is sent.
func TestOpenLoopStallLandsInLaterLatency(t *testing.T) {
	const (
		n       = 60
		spacing = 5 * time.Millisecond
		stallOp = 10
		stall   = 100 * time.Millisecond
	)
	var (
		mu       sync.Mutex // serializes the handler, as a stalled daemon would
		stallEnd time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Query().Get("op") == strconv.Itoa(stallOp) {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
	}))
	defer srv.Close()
	client := newClient()

	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * spacing
	}
	start := time.Now().Add(10 * time.Millisecond)
	done := make([]time.Time, n)
	late := openLoop(start, due, 2, func(i int) (time.Duration, bool) {
		code, _, _, err := call(client, http.MethodGet, srv.URL+"/?op="+strconv.Itoa(i), nil)
		if err != nil || code != http.StatusOK {
			t.Errorf("op %d: %d %v", i, code, err)
		}
		done[i] = time.Now()
		return 0, true
	})

	mu.Lock()
	defer mu.Unlock()
	var sawLate bool
	for i := stallOp + 1; i < n; i++ {
		dueAt := start.Add(due[i])
		latency := done[i].Sub(dueAt)
		if dueAt.Before(stallEnd) {
			if want := stallEnd.Sub(dueAt); latency < want {
				t.Errorf("op %d due %s before the stall ended: latency %s, want at least %s", i, stallEnd.Sub(dueAt), latency, want)
			}
		} else if dueAt.After(stallEnd.Add(100*time.Millisecond)) && latency > 50*time.Millisecond {
			t.Errorf("op %d due long after the stall: latency %s", i, latency)
		}
		if dueAt.After(start.Add(due[stallOp+1])) && dueAt.Before(stallEnd) && late[i] > 10*time.Millisecond {
			sawLate = true
		}
	}
	if !sawLate {
		t.Error("no operation due during the stall was reported late")
	}
}

// TestPoissonScheduleSeeded: the same seed gives the same schedule, and
// the mean rate is close to the requested one.
func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 2000, 100)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 2000, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules differ at %d", i)
		}
	}
	if got := float64(len(a)) / a[len(a)-1].Seconds(); got < 90 || got > 110 {
		t.Errorf("mean rate %.1f/s, want about 100/s", got)
	}
}
