package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pufatt/internal/delay"
	"pufatt/internal/rng"
	"pufatt/internal/sim"
)

// This file is the parallel batch-evaluation layer: every paper-scale
// campaign (Figure 3/4, the FNR Monte-Carlo, ML-attack training sets) is a
// large batch of independent challenge evaluations on one or more devices,
// and the levelized engine is cheaply cloneable, so the batch fans out
// across a bounded worker pool.
//
// Determinism is the design constraint. A Device's sequential RawResponse
// draws arbiter noise from one rolling stream, which a parallel schedule
// would consume in a racy order. The batch evaluator instead derives an
// independent noise stream per challenge — seeded by (device noise seed,
// batch epoch, item index) via rng.SubSeedN — so the result matrix is
// bit-identical for every worker count, including workers=1, and replays
// exactly for a given device history regardless of GOMAXPROCS.

// batchChunk is how many consecutive items a worker claims per dispatch:
// large enough to amortise the atomic fetch-add, small enough to balance
// tail latency on uneven netlists.
const batchChunk = 32

// BatchEvaluator fans challenge batches of one device across a bounded
// worker pool of cloned simulation engines. Create one per device (or use
// the Device.RawResponses family, which manages one lazily); it must not be
// used concurrently with other evaluations on the same device, but its own
// workers coordinate internally.
//
// Which physics engine runs underneath — scalar gate-level, 64-lane
// bitsliced gate-level (the default), or the linear-delay fast model — is
// selected per batch via Device.EvalEngine (see engine.go). The two
// gate-level engines are bit-identical; all three honour the same
// determinism contract (per-item noise streams, any worker count).
type BatchEvaluator struct {
	dev   *Device
	pool  *sim.Pool       // single-lane engines (EngineGate)
	spool *sim.SlicedPool // bitsliced engines (EngineBitslice)
}

// NewBatchEvaluator returns a batch evaluator over the device. Its engine
// pools build engines on first use.
func NewBatchEvaluator(dev *Device) *BatchEvaluator {
	tab := dev.tables[dev.cond]
	return &BatchEvaluator{
		dev:   dev,
		pool:  sim.NewPool(dev.design.prog, tab),
		spool: sim.NewSlicedPool(dev.design.prog, tab),
	}
}

// batcher returns the device's lazily created batch evaluator.
func (dev *Device) batcher() *BatchEvaluator {
	if dev.batch == nil {
		dev.batch = NewBatchEvaluator(dev)
	}
	return dev.batch
}

// RawResponses measures raw responses (with per-evaluation arbiter noise)
// for every challenge, fanning the batch across workers goroutines
// (0 = GOMAXPROCS). Row k of the result is the response to challenges[k];
// rows are caller-owned fresh storage, carved from one backing allocation.
// Results are bit-identical for every worker count.
func (dev *Device) RawResponses(challenges [][]uint8, workers int) [][]uint8 {
	return dev.batcher().RawResponses(challenges, nil, workers)
}

// NoiselessResponses is RawResponses without arbiter noise: the idealised
// expected responses at the current corner, evaluated in parallel.
func (dev *Device) NoiselessResponses(challenges [][]uint8, workers int) [][]uint8 {
	return dev.batcher().NoiselessResponses(challenges, nil, workers)
}

// MajorityResponses measures votes-fold temporal-majority responses for
// every challenge in parallel. votes must be odd.
func (dev *Device) MajorityResponses(challenges [][]uint8, votes, workers int) [][]uint8 {
	return dev.batcher().MajorityResponses(challenges, nil, votes, workers)
}

// RawResponses evaluates the batch with arbiter noise. dst, when non-nil,
// must have len(challenges) rows of ResponseBits bytes and is reused (the
// allocation-free steady state for blocked sweeps); pass nil to allocate.
func (be *BatchEvaluator) RawResponses(challenges, dst [][]uint8, workers int) [][]uint8 {
	return be.run(challenges, dst, workers, 1, true)
}

// NoiselessResponses evaluates the batch without arbiter noise.
func (be *BatchEvaluator) NoiselessResponses(challenges, dst [][]uint8, workers int) [][]uint8 {
	return be.run(challenges, dst, workers, 1, false)
}

// MajorityResponses evaluates the batch with votes-fold temporal majority
// voting per challenge (votes odd).
func (be *BatchEvaluator) MajorityResponses(challenges, dst [][]uint8, votes, workers int) [][]uint8 {
	if votes < 1 || votes%2 == 0 {
		panic(fmt.Sprintf("core: majority votes %d must be odd and positive", votes))
	}
	return be.run(challenges, dst, workers, votes, true)
}

// ResponseMatrix allocates a dst matrix for reuse across batch calls: rows
// response-width slices carved from one backing array.
func (be *BatchEvaluator) ResponseMatrix(rows int) [][]uint8 {
	return responseMatrix(rows, be.dev.design.ResponseBits())
}

func responseMatrix(rows, bits int) [][]uint8 {
	backing := make([]uint8, rows*bits)
	m := make([][]uint8, rows)
	for k := range m {
		m[k] = backing[k*bits : (k+1)*bits : (k+1)*bits]
	}
	return m
}

// ChallengeMatrix allocates a challenge matrix (rows × ChallengeBits) from
// one backing array, for batch producers to fill via ExpandChallengeInto.
func ChallengeMatrix(d *Design, rows int) [][]uint8 {
	bits := d.ChallengeBits()
	backing := make([]uint8, rows*bits)
	m := make([][]uint8, rows)
	for k := range m {
		m[k] = backing[k*bits : (k+1)*bits : (k+1)*bits]
	}
	return m
}

// run is the shared fan-out. Each item k is evaluated with a noise stream
// derived from (device noise seed, batch epoch, k): independent of the
// worker that runs it and of how many workers exist.
func (be *BatchEvaluator) run(challenges, dst [][]uint8, workers, votes int, noisy bool) [][]uint8 {
	dev := be.dev
	bits := dev.design.ResponseBits()
	chBits := 2 * dev.design.cfg.Width
	for k, ch := range challenges {
		if len(ch) != chBits {
			panic(fmt.Sprintf("core: challenge %d of %d bits, want %d", k, len(ch), chBits))
		}
	}
	if dst == nil {
		dst = responseMatrix(len(challenges), bits)
	} else if len(dst) < len(challenges) {
		panic(fmt.Sprintf("core: dst of %d rows for %d challenges", len(dst), len(challenges)))
	}
	dst = dst[:len(challenges)]
	epoch := dev.batchEpochs
	dev.batchEpochs++
	if len(challenges) == 0 {
		return dst
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(challenges) {
		workers = len(challenges)
	}

	// Per-batch constants, all read-only under the workers.
	engine := dev.EvalEngine()
	tab := dev.tables[dev.cond]
	jitter := 0.0
	if noisy {
		jitter = dev.design.cfg.JitterPs * dev.jitterScale
	}
	noiseBase := dev.noise.Sub(fmt.Sprintf("batch/%d", epoch))

	start := time.Now()
	switch engine {
	case EngineBitslice:
		be.runSliced(challenges, dst, workers, votes, jitter, noiseBase, tab)
	case EngineLinear:
		be.runLinear(challenges, dst, workers, votes, jitter, noiseBase)
	default:
		be.runGate(challenges, dst, workers, votes, jitter, noiseBase, tab)
	}

	dev.queries += uint64(len(challenges) * votes)
	batchBatches.Inc()
	batchItems.Add(uint64(len(challenges)))
	if elapsed := time.Since(start).Seconds(); elapsed > 0 && engine != EngineLinear {
		// Effective lane-evals: one gate-level pass per item either way —
		// the bitsliced engine just evaluates up to 64 items per block, so
		// items × gates stays the effective-work numerator across engines.
		gates := float64(len(challenges)) * float64(be.pool.GatesPerRun())
		batchGateEvalRate.Set(gates / elapsed)
	}
	return dst
}

// runGate is the scalar gate-level fan-out: chunks of whole items across
// cloned scalar engines.
func (be *BatchEvaluator) runGate(challenges, dst [][]uint8, workers, votes int, jitter float64, noiseBase *rng.Source, tab delay.Table) {
	dev := be.dev
	bits := dev.design.ResponseBits()
	be.pool.SetDelays(tab)
	var next atomic.Int64
	work := func(eng *sim.Engine) {
		var noise rng.Source
		counts := make([]int, bits)
		deltas := make([]float64, bits)
		for {
			lo := int(next.Add(batchChunk)) - batchChunk
			if lo >= len(challenges) {
				return
			}
			hi := lo + batchChunk
			if hi > len(challenges) {
				hi = len(challenges)
			}
			for k := lo; k < hi; k++ {
				if jitter > 0 {
					noise.Reinit(noiseBase.SubSeedN("item", k))
				}
				evalOne(dev, eng, challenges[k], dst[k], counts, deltas, &noise, jitter, votes)
			}
		}
	}
	if workers == 1 {
		// Sequential fast path: same item→noise mapping, no goroutines.
		eng := be.pool.Get()
		work(eng)
		be.pool.Put(eng)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batchWorkersBusy.Add(1)
				defer batchWorkersBusy.Add(-1)
				eng := be.pool.Get()
				defer be.pool.Put(eng)
				work(eng)
			}()
		}
		wg.Wait()
	}
}

// runSliced is the bitsliced fan-out: workers claim whole 64-lane blocks,
// transpose the block's challenges into lane words, run one levelized pass
// for all lanes, extract per-lane arbiter deltas, then draw each item's
// noise from its own stream in exactly the scalar order — so the result is
// bit-identical to runGate at every worker count.
func (be *BatchEvaluator) runSliced(challenges, dst [][]uint8, workers, votes int, jitter float64, noiseBase *rng.Source, tab delay.Table) {
	dev := be.dev
	bits := dev.design.ResponseBits()
	nIn := 2 * dev.design.cfg.Width
	blocks := (len(challenges) + sim.Lanes - 1) / sim.Lanes
	if workers > blocks {
		workers = blocks
	}
	pool := be.spool
	pool.SetDelays(tab)
	var next atomic.Int64
	work := func(eng *sim.SlicedEngine) {
		var noise rng.Source
		counts := make([]int, bits)
		inWords := make([]uint64, nIn)
		deltas := make([]float64, bits*sim.Lanes)
		var bcast [2][sim.Lanes]float64
		for {
			blk := int(next.Add(1)) - 1
			if blk >= blocks {
				return
			}
			lo := blk * sim.Lanes
			lanes := len(challenges) - lo
			if lanes > sim.Lanes {
				lanes = sim.Lanes
			}
			// Transpose: bit l of input word j is challenge lo+l's bit j.
			// Lane-outer order reads each challenge row sequentially and
			// keeps the word vector L1-resident. Tail lanes of a short
			// block stay zero (computed, never read).
			for j := range inWords {
				inWords[j] = 0
			}
			for l := 0; l < lanes; l++ {
				row := challenges[lo+l][:nIn]
				for j, bit := range row {
					inWords[j] |= uint64(bit&1) << l
				}
			}
			eng.RunBlock(inWords, lanes)
			extractLaneDeltas(dev, eng, deltas, &bcast)
			for l := 0; l < lanes; l++ {
				k := lo + l
				if jitter > 0 {
					noise.Reinit(noiseBase.SubSeedN("item", k))
				}
				latch(dst[k], counts, deltas, sim.Lanes, l, nil, &noise, jitter, votes)
			}
		}
	}
	if workers == 1 {
		eng := pool.Get()
		work(eng)
		pool.Put(eng)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batchWorkersBusy.Add(1)
				defer batchWorkersBusy.Add(-1)
				eng := pool.Get()
				defer pool.Put(eng)
				work(eng)
			}()
		}
		wg.Wait()
	}
	bitsliceLanesBusy.Set(float64(len(challenges)) / float64(blocks))
}

// extractLaneDeltas mirrors Device.arrivalDelta per lane, in the same
// floating-point operation order (arr1 + skew − arr0, then += extra), so the
// deltas are bit-identical to the scalar path. Pair nets whose arrival is
// challenge-independent (a sum fed by the constant carry-in) are broadcast
// into scratch rows.
func extractLaneDeltas(dev *Device, eng *sim.SlicedEngine, deltas []float64, bcast *[2][sim.Lanes]float64) {
	bits := dev.design.ResponseBits()
	for i := 0; i < bits; i++ {
		a0, a1 := dev.design.pair0[i], dev.design.pair1[i]
		skew := dev.design.skewPs[i]
		l0 := eng.ArrivalLanes(a0)
		if l0 == nil {
			c := eng.ConstArrival(a0)
			for l := range bcast[0] {
				bcast[0][l] = c
			}
			l0 = bcast[0][:]
		}
		l1 := eng.ArrivalLanes(a1)
		if l1 == nil {
			c := eng.ConstArrival(a1)
			for l := range bcast[1] {
				bcast[1][l] = c
			}
			l1 = bcast[1][:]
		}
		row := deltas[i*sim.Lanes : i*sim.Lanes+sim.Lanes]
		if dev.extraSkewPs != nil {
			extra := dev.extraSkewPs[i]
			for l := 0; l < sim.Lanes; l++ {
				d := l1[l] + skew - l0[l]
				d += extra
				row[l] = d
			}
		} else {
			for l := 0; l < sim.Lanes; l++ {
				row[l] = l1[l] + skew - l0[l]
			}
		}
	}
}

// runLinear evaluates the batch through the device's fitted linear-delay
// fast model (refitting lazily if the physics moved): no gate-level engine,
// just a windowed dot product per bit plus the standard noise pipeline.
func (be *BatchEvaluator) runLinear(challenges, dst [][]uint8, workers, votes int, jitter float64, noiseBase *rng.Source) {
	dev := be.dev
	bits := dev.design.ResponseBits()
	model := dev.linearModel()
	var next atomic.Int64
	work := func() {
		var noise rng.Source
		counts := make([]int, bits)
		deltas := make([]float64, bits)
		for {
			lo := int(next.Add(batchChunk)) - batchChunk
			if lo >= len(challenges) {
				return
			}
			hi := lo + batchChunk
			if hi > len(challenges) {
				hi = len(challenges)
			}
			for k := lo; k < hi; k++ {
				model.DeltasInto(challenges[k], deltas)
				if jitter > 0 {
					noise.Reinit(noiseBase.SubSeedN("item", k))
				}
				latch(dst[k], counts, deltas, 1, 0, nil, &noise, jitter, votes)
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				batchWorkersBusy.Add(1)
				defer batchWorkersBusy.Add(-1)
				work()
			}()
		}
		wg.Wait()
	}
}

// evalOne measures one challenge into out using the given single-lane
// engine, vote counter, delta scratch, and (already positioned) noise
// stream. It serves the scalar batch workers and, on the device's own engine
// and rolling stream, Device.RawResponse/NoiselessResponse/MajorityResponse.
// It runs one levelized pass, extracts the per-bit deltas, and hands them to
// the latch stage the bitsliced and linear paths feed too, which is what
// makes all engines' noisy outputs comparable term-for-term. jitter 0 is
// the noiseless response.
func evalOne(dev *Device, eng *sim.Engine, challenge, out []uint8, counts []int, deltas []float64, noise *rng.Source, jitter float64, votes int) {
	_, arr := eng.Run(challenge)
	for i := range deltas {
		deltas[i] = dev.arrivalDelta(arr, i)
	}
	latch(out, counts, deltas, 1, 0, nil, noise, jitter, votes)
}
