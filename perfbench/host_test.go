package main

import (
	"testing"
	"time"
)

// TestStealClock checks the steal accounting's bounds: the host's steal
// counter never runs backwards, and a clock never reports more stolen
// than elapsed time.
func TestStealClock(t *testing.T) {
	before := hostSteal()
	clock := startStealClock(2)
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
	}
	wall, stolen := clock.elapsed()
	if after := hostSteal(); after < before {
		t.Fatalf("steal counter ran backwards: %v then %v", before, after)
	}
	if wall < 20*time.Millisecond || stolen < 0 || stolen > wall {
		t.Fatalf("elapsed %v with %v stolen", wall, stolen)
	}
}

func TestQuietestIsLowestWindow(t *testing.T) {
	if got := quietest([]float64{4.2, 3.1, 9.7}); got != 3.1 {
		t.Fatalf("quietest = %v, want 3.1", got)
	}
}

func TestInterquartileMean(t *testing.T) {
	// The middle half is 3..6: the outlier 400 does not count.
	if got := interquartileMean([]float64{400, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Fatalf("interquartileMean = %v, want 4.5", got)
	}
}
