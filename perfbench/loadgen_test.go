package main

import (
	"testing"
	"time"

	"pufatt/internal/stats"
)

// evenSchedule aims n arrivals at device 0, one every gap.
func evenSchedule(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: time.Duration(i) * gap}
	}
	return out
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 1000, time.Second, 16)
	b := poissonSchedule(7, 1000, time.Second, 16)
	c := poissonSchedule(8, 1000, time.Second, 16)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] && a[len(a)-1] == c[len(c)-1] {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 900 || len(a) > 1100 {
		t.Fatalf("%d arrivals in 1 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].device < 0 || a[i].device >= 16 {
			t.Fatalf("bad arrival %d: %+v after %+v", i, a[i], a[i-1])
		}
	}
}

// TestOpenLoopChargesStall plants a stall in the target: the arrivals
// due while it holds the only worker must pay its wait in latency, the
// generator's lag must report it, and the run stays valid because the
// backlog drains afterwards.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		gap     = 5 * time.Millisecond
		stallAt = 20
		stall   = 150 * time.Millisecond
	)
	schedule := evenSchedule(200, gap)
	res := runOpenLoop(schedule, 1, func(a arrival) bool {
		if a.due == stallAt*gap {
			time.Sleep(stall)
		}
		return true
	})
	// The arrival right behind the stall was due one gap after it began
	// and could only start once it ended.
	next := res.samples[stallAt+1]
	if next.latency < stall-2*gap {
		t.Errorf("arrival behind the stall: latency %v, want at least %v", next.latency, stall-2*gap)
	}
	if next.queue < stall-2*gap {
		t.Errorf("arrival behind the stall: queue %v, want at least %v", next.queue, stall-2*gap)
	}
	lag := make([]float64, len(res.samples))
	for i, s := range res.samples {
		lag[i] = float64(s.lag)
	}
	if p99 := time.Duration(stats.Percentile(lag, 99)); p99 < stall/2 {
		t.Errorf("lag p99 %v does not report a %v stall", p99, stall)
	}
	if res.backlogGrowing {
		t.Error("a passing stall flagged the run as a growing backlog")
	}
	for i, s := range res.samples {
		if !s.ok || s.latency < s.queue {
			t.Fatalf("arrival %d: %+v", i, s)
		}
	}
}

// TestOpenLoopFlagsGrowingBacklog offers twice what the target serves: the
// run must be flagged invalid.
func TestOpenLoopFlagsGrowingBacklog(t *testing.T) {
	res := runOpenLoop(evenSchedule(60, 5*time.Millisecond), 1, func(arrival) bool {
		time.Sleep(10 * time.Millisecond)
		return true
	})
	if !res.backlogGrowing {
		t.Fatal("an overloaded run was not flagged")
	}
}

func TestClosedLoopStopsWhenInputRunsOut(t *testing.T) {
	n := 0
	next := func() (int, bool) {
		if n == 5 {
			return 0, false
		}
		n++
		return n, true
	}
	var served []int
	res := runClosedLoop(1, time.Minute, next, func(k int) { served = append(served, k) })
	if res.completed != 5 || len(served) != 5 || served[4] != 5 {
		t.Fatalf("completed %d, served %v; want 1..5", res.completed, served)
	}
}
