package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	store "pufatt/internal/crp/store"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
)

// enroll-batch provisions fresh device enrollments back to back: expand
// each seed into its eight challenges, evaluate every row on the 64-lane
// bitsliced batch simulator, and install the rows as a durable on-disk
// snapshot. A "session" of this workload is one device's provisioning.

const (
	workloadEnroll = "enroll-batch"

	// enrollPool is how many devices the set-up builds; provisioning
	// cycles through them, one round of the pool per seed set, so that
	// devices of one round share challenges and their rows can be compared.
	enrollPool = 32
	// enrollSeeds is the seed count of one provisioning (8 rows each).
	// At 8192 rows a provisioning computes for about 10 ms, so that the
	// snapshot's fsync, whose latency on a shared disk wanders, is a
	// small part of its time.
	enrollSeeds = 1024
	// rowsPerSeed is the number of expanded challenges per seed.
	rowsPerSeed = 8
	// setupRepeats is how often the set-up is built; setup_s is the
	// median of their CPU times. The set-up takes milliseconds, so many
	// samples are cheap.
	setupRepeats = 31
	// rateWindow is the number of provisionings the p50 and the rates are
	// read from: about a second of the run.
	rateWindow = 50
	// serveEvery is how often a provisioning's snapshot is also served
	// through a Registry, claimed from, closed and reopened by the output
	// check. Every provisioning has its rows checked.
	serveEvery = 8

	// Figure 3 puts the raw inter-chip Hamming distance of 32-bit
	// responses at ~36 %. The noiseless rows of one pool's 31 neighbouring
	// device pairs land between 0.35 and 0.42 over 30 workload seeds; a
	// broken evaluator (constant, random or identical rows) lands far out.
	minInterHD, maxInterHD = 0.30, 0.46
)

// calibrationHDBits pins the inter-device raw Hamming distance of a fixed
// enrollment, independent of the workload seed: the devices drawn from
// masters 1 and 2, enrolled over seeds 1..calibrationSeeds through the
// batch path. A change to the batch simulator must reproduce it bit for bit.
const (
	calibrationSeeds  = 64
	calibrationHDBits = 5973
)

// provision is one timed device provisioning. compute is the CPU time of
// challenge expansion plus the batch simulator, batch that of the
// simulator call alone; create is the wall time of the durable snapshot
// install, fsync included.
type provision struct {
	compute, batch, create time.Duration
}

// enrollDesign builds the PUF design and the device pool: the workload's
// set-up. Like the provisionings, it runs on one worker.
func enrollDesign(seed uint64) (*core.Design, []*core.Device, error) {
	design, err := core.NewDesign(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	pool := make([]*core.Device, enrollPool)
	for i := range pool {
		pool[i], err = core.NewDevice(design, rng.New(rng.New(seed).SubSeedN("pool", i)), 1000+i)
		if err != nil {
			return nil, nil, err
		}
	}
	return design, pool, nil
}

// expand fills a challenge matrix with every seed's eight challenges.
func expand(design *core.Design, seeds []uint64) [][]uint8 {
	ch := core.ChallengeMatrix(design, len(seeds)*rowsPerSeed)
	for i, s := range seeds {
		for j := 0; j < rowsPerSeed; j++ {
			design.ExpandChallengeInto(ch[i*rowsPerSeed+j], s, j)
		}
	}
	return ch
}

// enrollOne provisions dev over seeds into dir: batch evaluation on one
// worker, then the durable snapshot write. It returns the rows and the
// timings. The compute runs on one worker so that its CPU time is its
// latency on an idle host, and so that no worker waits on another whose
// vCPU the host took away.
func enrollOne(design *core.Design, dev *core.Device, seeds []uint64, dir string) ([][]uint8, provision, error) {
	c0 := cpuTime()
	challenges := expand(design, seeds)
	be := core.NewBatchEvaluator(dev)
	c1 := cpuTime()
	refs := be.NoiselessResponses(challenges, nil, 1)
	c2 := cpuTime()
	t2 := time.Now()
	st, err := store.Create(dir, dev.ChipID(), design.ResponseBits(), seeds, refs, store.DefaultOptions())
	if err != nil {
		return nil, provision{}, err
	}
	if err := st.Close(); err != nil {
		return nil, provision{}, err
	}
	t3 := time.Now()
	return refs, provision{compute: c2 - c0, batch: c2 - c1, create: t3.Sub(t2)}, nil
}

// checkEnrollment compares sampled rows with the scalar simulator. When
// serve is set it then serves the new snapshot in root through a Registry
// at the default options: it claims the first two seeds, each a WAL
// append and an fsync whose times it returns, and a sampled third; reads
// their rows back; and, after a close and reopen, checks that the three
// are refused.
func checkEnrollment(design *core.Design, dev *core.Device, seeds []uint64, refs [][]uint8, root string, pick *rng.Source, serve bool) ([]time.Duration, error) {
	for n := 0; n < 2; n++ {
		k := pick.Intn(len(refs))
		want := dev.NoiselessResponse(design.ExpandChallenge(seeds[k/rowsPerSeed], k%rowsPerSeed))
		if !bytes.Equal(refs[k], want) {
			return nil, fmt.Errorf("row %d differs from Device.NoiselessResponse", k)
		}
	}
	if !serve {
		return nil, nil
	}
	chip := dev.ChipID()
	reg, err := store.OpenRegistry(root, store.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Closes the reopened registry below, or this one on an early return.
	defer func() { reg.Close() }()
	st, err := reg.Device(chip)
	if err != nil {
		return nil, fmt.Errorf("opening: %w", err)
	}
	if st.Len() != len(seeds) || st.Remaining() != len(seeds) || st.ChipID() != chip {
		return nil, fmt.Errorf("opened store holds %d seeds (%d unused) for chip %d, want %d for chip %d",
			st.Len(), st.Remaining(), st.ChipID(), len(seeds), chip)
	}
	h, err := reg.Handle(chip)
	if err != nil {
		return nil, err
	}
	var claims []time.Duration
	for k := 0; k < 2; k++ {
		t0 := time.Now()
		seed, _, err := h.NextUnusedWithEpoch()
		claims = append(claims, time.Since(t0))
		if err != nil {
			return claims, fmt.Errorf("claim %d: %w", k, err)
		}
		if seed != seeds[k] {
			return claims, fmt.Errorf("claim %d returned seed %#x, want %#x", k, seed, seeds[k])
		}
	}
	claimed := []int{0, 1, 2 + pick.Intn(len(seeds)-2)}
	if err := h.Claim(seeds[claimed[2]]); err != nil {
		return claims, fmt.Errorf("claiming seed %d: %w", claimed[2], err)
	}
	for _, i := range claimed {
		for j := 0; j < rowsPerSeed; j++ {
			got, err := h.ReferenceResponse(seeds[i], j)
			if err != nil {
				return claims, fmt.Errorf("row %d: %w", i*rowsPerSeed+j, err)
			}
			if !bytes.Equal(got, refs[i*rowsPerSeed+j]) {
				return claims, fmt.Errorf("row %d does not round-trip", i*rowsPerSeed+j)
			}
		}
	}

	if err := reg.Close(); err != nil {
		return claims, fmt.Errorf("closing: %w", err)
	}
	reg, err = store.OpenRegistry(root, store.DefaultOptions())
	if err != nil {
		return claims, fmt.Errorf("reopening: %w", err)
	}
	h, err = reg.Handle(chip)
	if err != nil {
		return claims, fmt.Errorf("reopening: %w", err)
	}
	if got, want := h.Remaining(), len(seeds)-len(claimed); got != want {
		return claims, fmt.Errorf("%d seeds remain after reopen, want %d", got, want)
	}
	for _, i := range claimed {
		if err := h.Claim(seeds[i]); !errors.Is(err, crp.ErrSeedUsed) {
			return claims, fmt.Errorf("claimed seed %d not refused after reopen: %v", i, err)
		}
	}
	return claims, nil
}

// calibrationHD enrolls the fixed calibration pair through the batch path
// and returns their inter-device raw Hamming distance in bits.
func calibrationHD(design *core.Design, workers int) int {
	seeds := make([]uint64, calibrationSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	var rows [2][][]uint8
	for i, m := range []uint64{1, 2} {
		dev := core.MustNewDevice(design, rng.New(m), i)
		rows[i] = core.NewBatchEvaluator(dev).NoiselessResponses(expand(design, seeds), nil, workers)
	}
	hd := 0
	for k := range rows[0] {
		hd += stats.HammingDistance(rows[0][k], rows[1][k])
	}
	return hd
}

func runEnroll(opts runOptions) (*report, error) {
	rep := newReport()
	var (
		design    *core.Design
		pool      []*core.Device
		setupSecs []float64
	)
	for i := 0; i < setupRepeats; i++ {
		c0 := cpuTime()
		var err error
		design, pool, err = enrollDesign(opts.seed)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, (cpuTime() - c0).Seconds())
	}

	pick := rng.New(opts.seed).Sub("check")
	var (
		done           []provision
		latencies      []float64
		passed, failed int
		hdBits, hdRows int
		prevRefs       [][]uint8
		claims         []time.Duration // crpstore claims made by the checks
	)
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		round, dev := k/enrollPool, pool[k%enrollPool]
		seeds := deviceSeeds(rng.New(opts.seed).SubSeedN("round", round), 0, enrollSeeds)
		// The snapshot goes where a Registry rooted at root looks for it.
		root := filepath.Join(opts.workDir, fmt.Sprintf("enroll-%d", k))
		dir := filepath.Join(root, fmt.Sprintf("device-%d", dev.ChipID()))
		refs, p, err := enrollOne(design, dev, seeds, dir)
		if err == nil {
			var c []time.Duration
			c, err = checkEnrollment(design, dev, seeds, refs, root, pick, k%serveEvery == 0)
			claims = append(claims, c...)
		}
		if rerr := os.RemoveAll(root); rerr != nil {
			return nil, rerr
		}
		if err != nil {
			failed++
			rep.problems = append(rep.problems, fmt.Sprintf("provisioning %d (chip %d): %v", k, dev.ChipID(), err))
			continue
		}
		passed++
		done = append(done, p)
		latencies = append(latencies, float64(p.compute)/float64(time.Millisecond))
		if k%enrollPool != 0 && prevRefs != nil {
			for r := range refs {
				hdBits += stats.HammingDistance(prevRefs[r], refs[r])
			}
			hdRows += len(refs)
		}
		prevRefs = refs
	}

	bits := design.ResponseBits()
	if hdRows == 0 {
		rep.problems = append(rep.problems, "no device pair enrolled over shared challenges")
	} else if frac := float64(hdBits) / float64(hdRows*bits); frac < minInterHD || frac > maxInterHD {
		rep.problems = append(rep.problems, fmt.Sprintf("inter-device raw HD %.4f outside [%.2f, %.2f]", frac, minInterHD, maxInterHD))
	} else {
		rep.meta["inter_device_hd"] = frac
	}
	if got := calibrationHD(design, opts.procs); got != calibrationHDBits {
		rep.problems = append(rep.problems, fmt.Sprintf("calibration pair inter-device HD is %d bits, pinned %d", got, calibrationHDBits))
	}
	if len(latencies) < 1000 {
		rep.problems = append(rep.problems, fmt.Sprintf("only %d provisionings: fewer than 10 lie above p99", len(latencies)))
	}

	// Every figure is read per window of provisionings. Latency and
	// capacity cover the compute of a provisioning in CPU time, the part a
	// change to the batch simulator moves; the row rate adds the durable
	// snapshot write in wall time, since waiting on the disk is part of
	// it. A rate is read from the interquartile mean of a window's
	// provisionings, so that a slow fsync or a burst of the host's load
	// moves it less than a slower provisioning does. The p50 and the rates
	// are medians over windows; the p99 is the lowest over windows of
	// windowSamples provisionings, as in the fleet.
	var p50s, p99s, rates, rowRates []float64
	for _, w := range windows(len(done), rateWindow) {
		compute := make([]float64, 0, w[1]-w[0])
		whole := make([]float64, 0, w[1]-w[0])
		for _, p := range done[w[0]:w[1]] {
			compute = append(compute, p.compute.Seconds())
			whole = append(whole, (p.compute + p.create).Seconds())
		}
		p50s = append(p50s, stats.Percentile(latencies[w[0]:w[1]], 50))
		rates = append(rates, 1/interquartileMean(compute))
		rowRates = append(rowRates, enrollSeeds*rowsPerSeed/interquartileMean(whole))
	}
	for _, w := range windows(len(done), windowSamples) {
		p99s = append(p99s, stats.Percentile(latencies[w[0]:w[1]], 99))
	}
	var batch, create time.Duration
	for _, p := range done {
		batch += p.batch
		create += p.create
	}
	n := float64(max(len(done), 1))
	rows := float64(len(done) * enrollSeeds * rowsPerSeed)
	rep.attempted, rep.failed = passed+failed, failed
	rep.e2e["setup_s"] = stats.Percentile(setupSecs, 50)
	rep.e2e["session_p50_ms"] = stats.Percentile(p50s, 50)
	rep.layers["loadgen.session_p99_ms"] = quietest(p99s)
	rep.meta["session_p99_ms"] = quietest(p99s)
	rep.e2e["accept_rate"] = float64(passed) / float64(max(passed+failed, 1))
	rep.e2e["capacity_per_s"] = stats.Percentile(rates, 50)
	rep.e2e["enroll_crps_per_s"] = stats.Percentile(rowRates, 50)
	claimUs := durationsIn(claims, time.Microsecond)
	rep.layers["crpstore.claim_p50_us"] = stats.Percentile(claimUs, 50)
	rep.layers["crpstore.claim_p99_us"] = stats.Percentile(claimUs, 99)
	rep.layers["crpstore.create_ms_per_device"] = float64(create) / float64(time.Millisecond) / n
	rep.layers["core.batch_eval_ms_per_device"] = float64(batch) / float64(time.Millisecond) / n
	rep.layers["core.batch_rows_per_s"] = rows / batch.Seconds()
	rep.meta["provisionings"] = len(done)
	rep.meta["crpstore_claims"] = len(claims)
	rep.meta["rows_per_provisioning"] = enrollSeeds * rowsPerSeed
	rep.meta["device_pool"] = enrollPool
	rep.meta["window_p50_ms"] = p50s
	rep.meta["window_p99_ms"] = p99s
	return rep, nil
}

// interquartileMean is the mean of the middle half of values.
func interquartileMean(values []float64) float64 {
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	mid := sorted[len(sorted)/4 : len(sorted)-len(sorted)/4]
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}
