package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/attest/cluster"
	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
	"pufatt/internal/swatt"
)

// The fleet workload attests 256 simulated devices behind the cluster
// tier: every session seed is claimed through the cluster's replicated
// claim log, and the verifier checks against the PUF emulator.

const (
	workloadEmulated = "fleet-emulated"

	fleetDevices = 256
	// fleetRate is the phase-1 Poisson arrival rate, about half the
	// closed-loop capacity the parent system reaches on two cores.
	fleetRate = 600.0
	// phase1Share is the part of a run spent in the open-loop phase.
	phase1Share = 0.8
	// openWindow is the length of one open-loop window: at fleetRate it
	// holds more than windowSamples arrivals.
	openWindow = 2 * time.Second
	// setupBuilds is how many times a run builds the fleet; setup_s is
	// the median.
	setupBuilds = 5
)

// fleetParams is the SWATT geometry cluster.RunLoad uses: big enough for
// the full protocol, small enough that a session costs about a
// millisecond.
func fleetParams() swatt.Params {
	return swatt.Params{MemWords: 512, Chunks: 2, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
}

// fleetConfig sizes one fleet.
type fleetConfig struct {
	seed    uint64
	devices int
	// seedsPerDevice is each device's enrolled single-use seed budget.
	seedsPerDevice int
	// workers bounds setup parallelism and sessions in flight.
	workers int
	traced  bool
}

// fleetDevice is one device's session endpoint and outcome tally. Its
// mutex keeps the device's sessions from overlapping.
type fleetDevice struct {
	mu       sync.Mutex
	id       int
	verifier *attest.Verifier
	agent    attest.ProverAgent
	tap      *layerTap // nil on an untraced fleet

	claims                                   int // seeds claimed
	accepted, rejected, transport, otherErrs int
	retries                                  int
	firstErr                                 error
	// elapsed is the verifier-observed time of the device's first
	// completed session. The attestation program's cycle count is data
	// independent, so every later session must observe the same time.
	elapsed       float64
	elapsedVaries bool
}

// fleet is a built fleet, ready to attest.
type fleet struct {
	cfg     fleetConfig
	devs    []*fleetDevice
	link    attest.Link
	policy  attest.RetryPolicy
	cluster *cluster.Cluster
	seeds   [][]uint64 // enrolled seed order per device
	// auditFrames is the merged claim audit's frame count.
	auditFrames int
	// next is the closed-loop round robin's last device.
	next int
	// tracing opens a span on the device's tap for each session. It is
	// switched only between phases, while no session runs.
	tracing bool
}

// setupStats is one fleet build. Its times are wall time minus the
// host's steal (see stealClock).
type setupStats struct {
	seconds       float64
	enrollSeconds float64
	rows          int
}

// parallel runs fn(0..n-1) on workers goroutines and returns their errors
// joined.
func parallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return errors.Join(errs...)
}

// deviceSeeds derives a device's enrolled seed order from the workload
// seed: distinct within the device.
func deviceSeeds(seed uint64, id, n int) []uint64 {
	base := rng.New(seed).SubSeedN("enroll", id) &^ 0xffff
	out := make([]uint64, n)
	for k := range out {
		out[k] = base | uint64(k+1)
	}
	return out
}

// buildFleet constructs devices, enrolls them and binds their verifiers.
// The whole of it is the benchmark's set-up time.
func buildFleet(cfg fleetConfig) (*fleet, setupStats, error) {
	clock := startStealClock(cfg.workers)
	f := &fleet{
		cfg:    cfg,
		devs:   make([]*fleetDevice, cfg.devices),
		link:   attest.DefaultLink(),
		policy: attest.RetryPolicy{MaxAttempts: 3, JitterSeed: cfg.seed},
		seeds:  make([][]uint64, cfg.devices),
	}
	design, err := core.NewDesign(core.DefaultConfig())
	if err != nil {
		return nil, setupStats{}, err
	}
	payload := make([]uint32, 64)
	words := rng.New(cfg.seed).Sub("payload")
	for i := range payload {
		payload[i] = words.Uint32()
	}
	image, err := swatt.BuildImage(fleetParams(), payload)
	if err != nil {
		return nil, setupStats{}, err
	}

	devices := make([]*core.Device, cfg.devices)
	provers := make([]*attest.Prover, cfg.devices)
	err = parallel(cfg.devices, cfg.workers, func(id int) error {
		dev, err := core.NewDevice(design, rng.New(rng.New(cfg.seed).SubSeedN("device", id)), id)
		if err != nil {
			return err
		}
		port, err := mcu.NewDevicePort(dev)
		if err != nil {
			return err
		}
		prover := attest.NewProver(image.Clone(), port, 1)
		prover.TuneClock(0.98)
		devices[id], provers[id] = dev, prover
		f.seeds[id] = deviceSeeds(cfg.seed, id, cfg.seedsPerDevice)
		return nil
	})
	if err != nil {
		return nil, setupStats{}, fmt.Errorf("building devices: %w", err)
	}

	// Enrollment measures every device's reference rows through the
	// scalar per-seed path; enrollSeconds times this part alone.
	enrollClock := startStealClock(cfg.workers)
	enrollments := make([]*cluster.Enrollment, cfg.devices)
	err = parallel(cfg.devices, cfg.workers, func(id int) error {
		var err error
		enrollments[id], err = cluster.NewEnrollment(devices[id], f.seeds[id])
		return err
	})
	if err != nil {
		return nil, setupStats{}, fmt.Errorf("enrolling: %w", err)
	}
	wall, stolen := enrollClock.elapsed()
	enrollSeconds := (wall - stolen).Seconds()

	f.cluster, err = cluster.New(cluster.Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		VNodes:       64,
		Replicas:     3,
		MaxInFlight:  4 * cfg.workers,
		MaxQueue:     128 * cfg.workers,
		AutoFailover: true,
	})
	if err != nil {
		return nil, setupStats{}, err
	}
	for id := range f.devs {
		if err := f.bind(id, image, devices[id], provers[id], enrollments[id]); err != nil {
			return nil, setupStats{}, fmt.Errorf("binding device %d: %w", id, err)
		}
	}
	wall, stolen = clock.elapsed()
	return f, setupStats{
		seconds:       (wall - stolen).Seconds(),
		enrollSeconds: enrollSeconds,
		rows:          cfg.devices * cfg.seedsPerDevice * 8,
	}, nil
}

// bind builds one device's verifier over its seed budget and attaches it,
// wrapping the budget, prover and reference source in layer timers on a
// traced fleet.
func (f *fleet) bind(id int, image *swatt.Image, dev *core.Device, prover *attest.Prover, enr *cluster.Enrollment) error {
	d := &fleetDevice{id: id, elapsed: -1}
	f.devs[id] = d
	g, err := f.cluster.Enroll(enr)
	if err != nil {
		return err
	}
	var (
		budget attest.EpochBudget   = g
		src    core.ReferenceSource = dev.Emulator()
		agent  attest.ProverAgent   = prover
	)
	if f.cfg.traced {
		d.tap = &layerTap{}
		budget = &timedBudget{inner: budget, tap: d.tap}
		src = &timedSource{inner: src, tap: d.tap}
		agent = &timedAgent{inner: agent, tap: d.tap}
	}
	v, err := attest.NewVerifier(image, src, prover.FreqHz, prover.Port.Votes)
	if err != nil {
		return err
	}
	v.WithSeedBudget(budget)
	v.PUFEpoch = enr.Epoch()
	v.Device = fmt.Sprintf("device-%d", id)
	v.Nonces = rng.New(rng.New(f.cfg.seed).SubSeedN("nonces", id)).Uint32
	v.AllowNetwork(f.link)
	d.verifier, d.agent = v, agent
	return f.cluster.Bind(id, v, agent, f.link)
}

// attest runs one session for device id and reports whether it was
// accepted.
func (f *fleet) attest(id int) bool {
	d := f.devs[id]
	d.mu.Lock()
	defer d.mu.Unlock()
	traced := f.tracing && d.tap != nil
	if traced {
		d.tap.begin()
	}
	var (
		res      attest.Result
		attempts int
		err      error
	)
	res, attempts, err = f.cluster.Attest(context.Background(), id, f.policy)
	if traced {
		d.tap.end()
	}
	d.record(res, attempts, err)
	return err == nil && res.Accepted
}

// record tallies one session's outcome. Every attempt claims a seed except
// one refused for an exhausted budget.
func (d *fleetDevice) record(res attest.Result, attempts int, err error) {
	d.claims += attempts
	if attempts > 0 {
		d.retries += attempts - 1
	}
	switch {
	case err == nil && res.Accepted:
		d.accepted++
	case err == nil:
		d.rejected++
		err = fmt.Errorf("rejected: %s", res.Reason)
	case attest.IsTransport(err):
		d.transport++
	default:
		if attest.IsExhausted(err) && attempts > 0 {
			d.claims--
		}
		d.otherErrs++
	}
	if err != nil && d.firstErr == nil {
		d.firstErr = err
	}
	if err == nil {
		switch {
		case d.elapsed < 0:
			d.elapsed = res.Elapsed
		case d.elapsed != res.Elapsed:
			d.elapsedVaries = true
		}
	}
}

// fleetTotals sums the per-device tallies. Call only while no session
// runs.
type fleetTotals struct {
	sessions, accepted, rejected, transport, otherErrs, retries, claims int
	firstErr                                                            error
}

func (f *fleet) totals() fleetTotals {
	var t fleetTotals
	for _, d := range f.devs {
		t.accepted += d.accepted
		t.rejected += d.rejected
		t.transport += d.transport
		t.otherErrs += d.otherErrs
		t.retries += d.retries
		t.claims += d.claims
		if t.firstErr == nil && d.firstErr != nil {
			t.firstErr = fmt.Errorf("device %d: %w", d.id, d.firstErr)
		}
	}
	t.sessions = t.accepted + t.rejected + t.transport + t.otherErrs
	return t
}

// takeLayers merges every device's traced samples since the last call and
// starts the devices afresh.
func (f *fleet) takeLayers() *layerSamples {
	all := &layerSamples{}
	for _, d := range f.devs {
		if d.tap != nil {
			all.merge(&d.tap.rec)
			d.tap.rec = layerSamples{}
		}
	}
	return all
}

// phase2Cap bounds one closed-loop slice so that no device can exhaust its
// seed budget: it keeps back what the remaining open-loop windows will
// claim and shares the rest between the slices left (one claim per
// session; the honest channel never retries).
func (f *fleet) phase2Cap(later [][]arrival, slicesLeft int) int {
	need := make([]int, len(f.devs))
	for _, sched := range later {
		for _, a := range sched {
			need[a.device]++
		}
	}
	least := math.MaxInt
	for i, d := range f.devs {
		least = min(least, f.cfg.seedsPerDevice-d.claims-need[i])
	}
	return max(0, least) * len(f.devs) / slicesLeft
}

// closedLoop runs one closed-loop slice of at most cap sessions for span,
// continuing the round robin over devices where the last slice left it.
func (f *fleet) closedLoop(span time.Duration, cap int) closedLoopResult {
	var mu sync.Mutex
	n := 0
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n >= cap {
			return 0, false
		}
		n++
		f.next = (f.next + 1) % len(f.devs)
		return f.next, true
	}
	clock := startStealClock(f.cfg.workers)
	res := runClosedLoop(f.cfg.workers, span, next, func(id int) { f.attest(id) })
	_, res.stolen = clock.elapsed()
	return res
}

// check runs the fleet's output checks after all sessions.
func (f *fleet) check() []string {
	var problems []string
	t := f.totals()
	for _, d := range f.devs {
		if d.elapsedVaries {
			problems = append(problems, fmt.Sprintf("device %d: verifier-observed session time varies between sessions", d.id))
			break
		}
	}
	for _, d := range f.devs {
		if d.tap != nil && d.tap.computeVaries {
			problems = append(problems, fmt.Sprintf("device %d: mcu simulated compute varies between sessions", d.id))
			break
		}
	}
	audit := f.cluster.AuditClaims()
	if !audit.Clean() {
		problems = append(problems, fmt.Sprintf("claim audit: %d violations, first: %s", len(audit.Violations), audit.Violations[0]))
	}
	f.auditFrames = audit.Frames
	if audit.Frames != t.claims {
		problems = append(problems, fmt.Sprintf("claim audit: %d frames for %d claims made", audit.Frames, t.claims))
	}
	return problems
}

// fleetSeedsPerDevice sizes each device's budget for a run of the given
// length. Per second of run, the open-loop windows claim about 1.9 seeds
// per device (about 2.6 on the busiest one) and the closed-loop slices
// about 1.6 at 2000 sessions/s. A faster system reaches the closed-loop
// cap, which ends its slices early; their rate stays valid.
func fleetSeedsPerDevice(seconds float64) int {
	return 8 + int(math.Ceil(5*seconds))
}

// runFleet builds the fleet, measures it, and checks its outputs.
//
// Set-up time is the median over several builds: throwaway copies of the
// fleet first, then the kept one. The measured part runs in rounds. Each
// round collects the garbage, then runs an open-loop window (phase 1) and a
// closed-loop slice (phase 2) on the kept fleet. So every metric samples
// the whole run rather than one stretch of it.
func runFleet(opts runOptions) (*report, error) {
	rep := newReport()
	seeds := fleetSeedsPerDevice(opts.seconds)
	cfg := fleetConfig{
		seed:           opts.seed,
		devices:        fleetDevices,
		seedsPerDevice: seeds,
		workers:        opts.procs,
		traced:         opts.trace,
	}
	var setupSecs, rowRates []float64
	build := func() (*fleet, error) {
		f, st, err := buildFleet(cfg)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, st.seconds)
		rowRates = append(rowRates, float64(st.rows)/st.enrollSeconds)
		return f, nil
	}
	span1 := time.Duration(opts.seconds * phase1Share * float64(time.Second))
	span2 := time.Duration(opts.seconds*float64(time.Second)) - span1
	rounds := max(1, int(span1/openWindow))
	schedules := make([][]arrival, rounds)
	for r := range schedules {
		schedules[r] = poissonSchedule(rng.New(opts.seed).SubSeedN("arrivals", r), fleetRate, span1/time.Duration(rounds), cfg.devices)
	}

	// The throwaway builds come first, each released before the next
	// starts, so that peak RSS covers one fleet and its set-up garbage.
	for i := 1; i < setupBuilds; i++ {
		if _, err := build(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	f, err := build()
	if err != nil {
		return nil, err
	}

	var (
		open    []openLoopResult
		phase2  []closedLoopResult
		layers  = &layerSamples{}
		cpu     time.Duration
		issued  int
		growing int
	)
	for r, schedule := range schedules {
		runtime.GC()

		f.tracing = opts.trace
		cpu0 := cpuTime()
		res := runOpenLoop(schedule, opts.procs, func(a arrival) bool { return f.attest(a.device) })
		cpu += cpuTime() - cpu0
		layers.merge(f.takeLayers())
		open = append(open, res)
		issued += len(schedule)
		if res.backlogGrowing {
			growing++
		}

		f.tracing = tracedSlice(opts.trace, r)
		slice := f.closedLoop(span2/time.Duration(rounds), f.phase2Cap(schedules[r+1:], rounds-r))
		f.takeLayers()
		phase2 = append(phase2, slice)
		issued += slice.completed
	}

	rep.problems = append(rep.problems, f.check()...)
	t := f.totals()
	if t.sessions != issued {
		rep.problems = append(rep.problems, fmt.Sprintf("%d sessions tallied for %d issued", t.sessions, issued))
	}
	if 2*growing > rounds {
		rep.problems = append(rep.problems, fmt.Sprintf("open loop invalid: the generator's backlog kept growing in %d of %d windows", growing, rounds))
	}
	var samples []sample
	for _, o := range open {
		samples = append(samples, o.samples...)
	}
	if len(samples) < windowSamples*rounds {
		rep.problems = append(rep.problems, fmt.Sprintf("only %d phase-1 samples in %d windows: fewer than 10 per window lie above p99", len(samples), rounds))
	}
	if t.firstErr != nil {
		rep.notes = append(rep.notes, "first failed session: "+t.firstErr.Error())
	}
	// A session fails when it ends without a verdict. An honest device
	// rejected by PUF noise got a verdict: the false-reject rate, which
	// accept_rate measures and "rejected" counts.
	rep.attempted = t.sessions
	rep.failed = t.transport + t.otherErrs

	var p50s, p99s []float64
	for _, o := range open {
		p50, p99 := latencyPercentiles(o.samples)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
	}
	rep.e2e["setup_s"] = stats.Percentile(setupSecs, 50)
	rep.e2e["session_p50_ms"] = quietest(p50s)
	// The p99 is reported, but only in the traced run's per-layer split,
	// which has no bound: on a shared host it follows other tenants'
	// load (see README.md).
	rep.layers["loadgen.session_p99_ms"] = quietest(p99s)
	rep.meta["session_p99_ms"] = quietest(p99s)
	rep.e2e["accept_rate"] = float64(t.accepted) / float64(max(t.sessions, 1))
	rep.e2e["capacity_per_s"] = capacity(phase2, opts.trace, false)
	rep.e2e["enroll_crps_per_s"] = stats.Percentile(rowRates, 50)
	rep.meta["phase1_samples"] = len(samples)
	rep.meta["phase1_rate_per_s"] = fleetRate
	rep.meta["phase1_seconds"] = span1.Seconds()
	rep.meta["phase2_seconds"] = span2.Seconds()
	rep.meta["rounds"] = rounds
	rep.meta["window_p50_ms"] = jsonNumbers(p50s)
	rep.meta["window_p99_ms"] = jsonNumbers(p99s)
	rep.meta["rejected"] = t.rejected
	rep.meta["slice_rates_per_s"] = sliceRates(phase2)
	rep.meta["setup_s_each"] = setupSecs
	rep.meta["enroll_rows_per_s_each"] = rowRates
	rep.meta["devices"] = len(f.devs)
	rep.meta["seeds_per_device"] = seeds
	rep.meta["in_flight_bound"] = opts.procs

	if opts.trace {
		fillFleetLayers(rep, f, samples, layers, cpu, t, phase2)
	}
	return rep, nil
}

// tracedSlice says whether closed-loop slice r of a traced run is traced:
// the slices run untraced, traced, traced, untraced (ABBA) and repeat, so
// drift cancels out of the tracing overhead.
func tracedSlice(tracedRun bool, r int) bool {
	return tracedRun && (r%4 == 1 || r%4 == 2)
}

// sliceRates lists each closed-loop stretch's completed sessions per
// second of wall time, less the host's steal: the workers keep every vCPU
// busy, so each vCPU lost the steal's share of the stretch.
func sliceRates(rs []closedLoopResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.completed) / (r.wall - r.stolen).Seconds()
	}
	return out
}

// capacity is the median rate of the closed-loop stretches, in completed
// sessions per second; on a traced run it reads either the traced or the
// untraced stretches.
func capacity(rs []closedLoopResult, tracedRun, tracedStretches bool) float64 {
	var rates []float64
	for i, rate := range sliceRates(rs) {
		if tracedSlice(tracedRun, i) == tracedStretches {
			rates = append(rates, rate)
		}
	}
	return stats.Percentile(rates, 50)
}

// latencyPercentiles reads one open-loop window's p50 and p99 latency in
// milliseconds. A failed session counts as +∞.
func latencyPercentiles(samples []sample) (p50, p99 float64) {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = math.Inf(1)
		if s.ok {
			lat[i] = float64(s.latency) / float64(time.Millisecond)
		}
	}
	return stats.Percentile(lat, 50), stats.Percentile(lat, 99)
}

// fillFleetLayers derives the per-layer metrics of a traced fleet run from
// the phase-1 samples.
func fillFleetLayers(rep *report, f *fleet, samples []sample, l *layerSamples, cpu time.Duration, t fleetTotals, phase2 []closedLoopResult) {
	lag := make([]float64, len(samples))
	queue := make([]float64, len(samples))
	for i, s := range samples {
		lag[i] = float64(s.lag) / float64(time.Millisecond)
		queue[i] = float64(s.queue) / float64(time.Millisecond)
	}
	m := rep.layers
	m["loadgen.lag_p99_ms"] = stats.Percentile(lag, 99)
	m["loadgen.queue_p50_ms"] = stats.Percentile(queue, 50)
	m["loadgen.queue_p99_ms"] = stats.Percentile(queue, 99)

	sessions := float64(max(l.sessions, 1))
	claimUs := durationsIn(l.claim, time.Microsecond)
	admit := durationsIn(l.admit, time.Microsecond)
	m["cluster.admit_p50_us"] = stats.Percentile(admit, 50)
	m["cluster.admit_p99_us"] = stats.Percentile(admit, 99)
	m["cluster.claim_p50_us"] = stats.Percentile(claimUs, 50)
	m["cluster.claim_p99_us"] = stats.Percentile(claimUs, 99)
	m["cluster.claims_per_session"] = float64(l.claims) / sessions
	m["cluster.audit_frames"] = float64(f.auditFrames)

	respond := durationsIn(l.respond, time.Millisecond)
	m["mcu.respond_p50_ms"] = stats.Percentile(respond, 50)
	m["mcu.respond_p99_ms"] = stats.Percentile(respond, 99)
	m["mcu.share"] = l.respondSum.Seconds() / l.session.Seconds()
	var compute float64
	var devices int
	for _, d := range f.devs {
		if d.tap != nil && d.tap.compute > 0 {
			compute += d.tap.compute
			devices++
		}
	}
	m["mcu.sim_compute_ms"] = compute / float64(max(devices, 1)) * 1e3

	var refSum time.Duration
	for _, d := range l.reference {
		refSum += d
	}
	m["core.reference_calls_per_session"] = float64(l.references) / sessions
	m["core.reference_p50_us"] = stats.Percentile(durationsIn(l.reference, time.Microsecond), 50)
	m["core.reference_ms_per_session"] = float64(refSum) / float64(time.Millisecond) / sessions

	self := durationsIn(l.verifySelf, time.Microsecond)
	m["attest.verify_self_p50_us"] = stats.Percentile(self, 50)
	m["attest.verify_self_p99_us"] = stats.Percentile(self, 99)
	m["attest.verifier_cpu_ms_per_session"] = float64(cpu-l.respondSum) / float64(time.Millisecond) / sessions
	m["attest.rejected"] = float64(t.rejected)
	m["attest.transport_failed"] = float64(t.transport)
	m["attest.retries_per_session"] = float64(t.retries) / float64(max(t.sessions, 1))

	off, on := capacity(phase2, true, false), capacity(phase2, true, true)
	rep.meta["traced_slice_rate_per_s"] = on
	if off > 0 {
		m["bench.trace_overhead_pct"] = (off - on) / off * 100
	}
	rep.meta["traced_sessions"] = l.sessions
}
