package core

import (
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/rng"
	"pufatt/internal/sim"
)

// Linear-delay fast model: the additive stage-delay arbiter approximation in
// the Φ(C) parity-vector tradition of MUX/arbiter-PUF modeling (PAPERS.md).
//
// The exact physics of response bit i is the floating-mode arrival race of
// two ripple-carry sum nets, a piecewise-linear (min/max) function of the
// per-gate delays gated by the challenge. The fast model replaces it with a
// ridge-regressed linear form over per-stage challenge features
//
//	Δ̂_i(C) = w_0 + Σ_{j ∈ window(i)} w_a·±a_j + w_b·±b_j + w_g·±(a_j∧b_j) + w_p·±(a_j⊕b_j)
//
// in ±1 encoding, where window(i) is the last Window stages feeding bit i —
// carry influence on a sum bit decays geometrically with stage distance
// (each extra stage requires a longer propagate run), so a short window
// captures almost all of the variance. Crucially the model predicts the
// arrival *delta in picoseconds*, not the response bit: the batch layer adds
// per-item arbiter noise to Δ̂ exactly as it does to gate-level deltas, so
// noisy/voted evaluation and the determinism contracts work unchanged.
//
// The model is fitted on noiseless gate-level deltas from a deterministic
// challenge stream and validated on a held-out set at fit time; Agreement()
// reports the holdout sign-agreement with the gate-level engine. It is an
// approximation — see DESIGN.md for when it is (and is not) a valid
// substitute. Its value is footprint and setup cost: a few KB of weights
// evaluated in ~1k FLOPs, with no netlist or delay table, e.g. for fleet
// load synthesis and attack training-set generation at scale.

// LinearModelConfig parameterises FitLinearModel.
type LinearModelConfig struct {
	// TrainN is the number of fitting challenges; TestN the held-out
	// validation challenges.
	TrainN, TestN int
	// Window is how many trailing adder stages feed each response bit's
	// feature vector (clamped to the operand width).
	Window int
	// Ridge is the relative L2 regularisation (scaled by TrainN).
	Ridge float64
	// MinAgreement, when > 0, makes the fit fail if holdout sign-agreement
	// with the gate-level engine falls below it.
	MinAgreement float64
}

// DefaultLinearModelConfig returns the enrollment-time defaults.
func DefaultLinearModelConfig() LinearModelConfig {
	return LinearModelConfig{TrainN: 2048, TestN: 512, Window: 8, Ridge: 1e-3}
}

// LinearModel is a fitted linear-delay fast model for one device at one
// physics state (corner, epoch, aging). Fit via FitLinearModel.
type LinearModel struct {
	width  int
	window int
	// weights[i] = [bias, then 4 weights per stage of bit i's window];
	// start[i] is the first stage of that window.
	weights [][]float64
	start   []int
	// agreement is holdout sign-agreement vs the gate-level engine, overall
	// and per bit.
	agreement float64
	perBit    []float64
	// Staleness fingerprint: the device physics the fit saw.
	physGen uint64
	cond    delay.Conditions
}

// pmTable maps a challenge bit to its ±1 feature encoding.
var pmTable = [2]float64{-1, 1}

// Agreement returns the holdout sign-agreement with the gate-level engine
// measured at fit time (1 = every validation bit matched).
func (m *LinearModel) Agreement() float64 { return m.agreement }

// PerBitAgreement returns the holdout agreement per response bit.
func (m *LinearModel) PerBitAgreement() []float64 {
	return append([]float64(nil), m.perBit...)
}

// Window returns the fitted per-bit stage window.
func (m *LinearModel) Window() int { return m.window }

// DeltasInto predicts the per-bit arrival deltas (ps) for one challenge into
// dst (len ≥ response bits).
func (m *LinearModel) DeltasInto(challenge []uint8, dst []float64) {
	for i := range m.weights {
		w := m.weights[i]
		s := w[0]
		j := m.start[i]
		for p := 1; p < len(w); p += 4 {
			a := challenge[j] & 1
			b := challenge[m.width+j] & 1
			s += w[p]*pmTable[a] + w[p+1]*pmTable[b] +
				w[p+2]*pmTable[a&b] + w[p+3]*pmTable[a^b]
			j++
		}
		dst[i] = s
	}
}

// stale reports whether the device's physics moved since the fit.
func (m *LinearModel) stale(dev *Device) bool {
	return m.physGen != dev.physGen || m.cond != dev.cond
}

// linearModel returns the device's fitted fast model, refitting when the
// physics (corner, epoch, aging, skew) changed since the last fit. The fit
// is deterministic, so the model — like everything the batch layer does —
// replays bit-exactly.
func (dev *Device) linearModel() *LinearModel {
	if dev.linear == nil || dev.linear.stale(dev) {
		m, err := FitLinearModel(dev, DefaultLinearModelConfig())
		if err != nil {
			panic(fmt.Sprintf("core: linear-model fit failed: %v", err))
		}
		dev.linear = m
	}
	return dev.linear
}

// FitLinearModel fits the linear-delay fast model to the device's current
// physics: ridge least squares of noiseless gate-level arrival deltas on
// windowed ±1 parity features, then holdout validation. Challenges come from
// a stream derived from (design seed, chip ID), so the same device state
// always yields the same model. The fit queries the engine directly and does
// not count against Device.Queries.
func FitLinearModel(dev *Device, cfg LinearModelConfig) (*LinearModel, error) {
	width := dev.design.cfg.Width
	bits := dev.design.ResponseBits()
	win := cfg.Window
	if win < 1 || win > width {
		win = width
	}
	if cfg.TrainN < 1 || cfg.TestN < 1 {
		return nil, fmt.Errorf("core: linear-model fit with TrainN=%d TestN=%d", cfg.TrainN, cfg.TestN)
	}
	dim := 1 + 4*width

	src := rng.New(dev.design.cfg.DesignSeed).SubN("linear-model/fit", dev.chip.ID())
	eng := sim.NewEngine(dev.design.prog, dev.tables[dev.cond])

	// Accumulate the full Gram matrix and per-bit cross vectors in one pass;
	// each bit's normal equations are then a window-indexed submatrix.
	gram := make([]float64, dim*dim)
	cross := make([]float64, bits*dim)
	feats := make([]float64, dim)
	deltas := make([]float64, bits)
	ch := make([]uint8, 2*width)
	for t := 0; t < cfg.TrainN; t++ {
		src.Bits(ch)
		_, arr := eng.Run(ch)
		for i := 0; i < bits; i++ {
			deltas[i] = dev.arrivalDelta(arr, i)
		}
		linearFeatures(ch, width, feats)
		for j := 0; j < dim; j++ {
			fj := feats[j]
			row := gram[j*dim:]
			for k := j; k < dim; k++ {
				row[k] += fj * feats[k]
			}
			cr := cross[j:]
			for i := 0; i < bits; i++ {
				cr[i*dim] += fj * deltas[i]
			}
		}
	}
	for j := 0; j < dim; j++ {
		for k := j + 1; k < dim; k++ {
			gram[k*dim+j] = gram[j*dim+k]
		}
	}

	model := &LinearModel{
		width:   width,
		window:  win,
		weights: make([][]float64, bits),
		start:   make([]int, bits),
		physGen: dev.physGen,
		cond:    dev.cond,
	}
	lambda := cfg.Ridge * float64(cfg.TrainN)
	for i := 0; i < bits; i++ {
		// Sum bit i races through stages ≤ i; the carry bit (i == width)
		// through the last stages. Either way: the window trailing stage
		// min(i, width-1).
		last := i
		if last > width-1 {
			last = width - 1
		}
		startStage := last - win + 1
		if startStage < 0 {
			startStage = 0
		}
		model.start[i] = startStage
		idx := make([]int, 0, 1+4*(last-startStage+1))
		idx = append(idx, 0)
		for j := startStage; j <= last; j++ {
			idx = append(idx, 1+4*j, 2+4*j, 3+4*j, 4+4*j)
		}
		m := len(idx)
		a := make([]float64, m*m)
		b := make([]float64, m)
		for r, jr := range idx {
			for c, jc := range idx {
				a[r*m+c] = gram[jr*dim+jc]
			}
			a[r*m+r] += lambda
			b[r] = cross[i*dim+jr]
		}
		w, ok := solveCholesky(a, b, m)
		if !ok {
			return nil, fmt.Errorf("core: linear-model normal equations singular for bit %d", i)
		}
		model.weights[i] = w
	}

	// Holdout validation against the gate-level engine.
	correct := make([]int, bits)
	pred := make([]float64, bits)
	for t := 0; t < cfg.TestN; t++ {
		src.Bits(ch)
		_, arr := eng.Run(ch)
		model.DeltasInto(ch, pred)
		for i := 0; i < bits; i++ {
			if (dev.arrivalDelta(arr, i) > 0) == (pred[i] > 0) {
				correct[i]++
			}
		}
	}
	model.perBit = make([]float64, bits)
	sum := 0.0
	for i, c := range correct {
		model.perBit[i] = float64(c) / float64(cfg.TestN)
		sum += model.perBit[i]
	}
	model.agreement = sum / float64(bits)
	if cfg.MinAgreement > 0 && model.agreement < cfg.MinAgreement {
		return nil, fmt.Errorf("core: linear-model holdout agreement %.4f below required %.4f",
			model.agreement, cfg.MinAgreement)
	}
	return model, nil
}

// linearFeatures fills the full ±1 feature vector: bias then, per stage j,
// ±a_j, ±b_j, ±(a_j∧b_j), ±(a_j⊕b_j).
func linearFeatures(ch []uint8, width int, out []float64) {
	out[0] = 1
	for j := 0; j < width; j++ {
		a := ch[j] & 1
		b := ch[width+j] & 1
		out[1+4*j] = pmTable[a]
		out[2+4*j] = pmTable[b]
		out[3+4*j] = pmTable[a&b]
		out[4+4*j] = pmTable[a^b]
	}
}

// solveCholesky solves the symmetric positive-definite system a·x = b
// (row-major n×n, destroyed) by Cholesky decomposition.
func solveCholesky(a, b []float64, n int) ([]float64, bool) {
	// Decompose a = L·Lᵀ in the lower triangle.
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	// Forward then back substitution.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*n+k] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
	return x, true
}
