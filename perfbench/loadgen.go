package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pufatt/internal/stats"
)

// arrival is one scheduled request of an open-loop window: when it is due,
// as an offset from the window start, and which device it targets.
type arrival struct {
	due    time.Duration
	device int
}

// poissonSchedule draws a seeded Poisson arrival process at rate requests
// per second over span, aiming each arrival at a uniformly drawn device.
func poissonSchedule(seed uint64, rate float64, span time.Duration, devices int) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x6f70656e6c6f6f70))
	var out []arrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		out = append(out, arrival{due: due, device: r.IntN(devices)})
	}
}

// sample is one open-loop arrival's timeline, every part measured from the
// arrival's intended time.
type sample struct {
	// lag is how late the generator turned to this arrival: timer
	// oversleep plus the time it was still held up handing earlier
	// arrivals to busy workers.
	lag time.Duration
	// queue is how long the arrival waited before a worker took it.
	queue time.Duration
	// latency runs to the verdict.
	latency time.Duration
	ok      bool
}

// openLoopResult is one open-loop window.
type openLoopResult struct {
	samples []sample
	// backlogGrowing flags a window whose generator fell further behind
	// schedule in every quarter: the offered rate exceeded what the
	// system served, so the window no longer measured open-loop latency.
	backlogGrowing bool
}

// runOpenLoop replays schedule against serve with at most workers requests
// in flight. The generator hands each arrival to a free worker when it is
// due; an arrival that finds every worker busy waits in the generator, and
// so does every arrival behind it. Latency runs from the intended arrival,
// so that wait is counted.
func runOpenLoop(schedule []arrival, workers int, serve func(arrival) bool) openLoopResult {
	samples := make([]sample, len(schedule))
	jobs := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due := start.Add(schedule[i].due)
				taken := time.Now()
				ok := serve(schedule[i])
				samples[i].queue = taken.Sub(due)
				samples[i].latency = time.Since(due)
				samples[i].ok = ok
			}
		}()
	}
	for i, a := range schedule {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].lag = max(0, time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return openLoopResult{samples: samples, backlogGrowing: backlogGrowing(samples)}
}

// backlogGrowing reports whether the median generator lag rose in every
// quarter of the window and ended above 10 ms. A passing stall raises the
// lag of one quarter only; a sustained overload raises all of them.
func backlogGrowing(samples []sample) bool {
	if len(samples) < 8 {
		return false
	}
	var q [4]float64
	n := len(samples)
	for k := range q {
		part := samples[k*n/4 : (k+1)*n/4]
		lags := make([]float64, len(part))
		for i, s := range part {
			lags[i] = float64(s.lag)
		}
		q[k] = stats.Percentile(lags, 50)
	}
	return q[0] < q[1] && q[1] < q[2] && q[2] < q[3] && q[3] > float64(10*time.Millisecond)
}

// closedLoopResult is one closed-loop slice.
type closedLoopResult struct {
	completed int
	wall      time.Duration
	// stolen is the part of wall the host took from each vCPU; the
	// caller measures it.
	stolen time.Duration
}

// runClosedLoop runs workers back to back for span: each worker draws the
// next request from next and issues it as soon as its previous one
// returned. It stops early when next runs out.
func runClosedLoop(workers int, span time.Duration, next func() (int, bool), serve func(int)) closedLoopResult {
	var completed atomic.Int64
	start := time.Now()
	deadline := start.Add(span)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k, ok := next()
				if !ok {
					return
				}
				serve(k)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	return closedLoopResult{completed: int(completed.Load()), wall: time.Since(start)}
}

// windowSamples is the smallest window a percentile is read from: at
// least 10 samples then lie above its p99.
const windowSamples = 1000

// windows splits n ordered samples into as many contiguous windows of at
// least size samples as fit (one window when fewer), returned as
// [start, end) index pairs.
func windows(n, size int) [][2]int {
	k := max(1, n/size)
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

// quietest reads a latency percentile from a run's windows: the lowest of
// the windows' values. Other tenants of a shared host only ever add
// latency (a descheduled vCPU stalls every session in flight and queues
// the arrivals behind it), and their bursts last seconds, so the quietest
// window is the one least contaminated by them. A slower program raises
// every window, the quietest included.
func quietest(values []float64) float64 {
	return slices.Min(values)
}

// durationsIn converts durations to float64 in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
