package sim

import (
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
)

// Bitsliced levelized evaluation: 64 challenges per machine word.
//
// SlicedEngine runs the compiled program (program.go) once per *block* of up
// to 64 challenges: every net carries a uint64 value word (lane l =
// challenge l of the block) and, where needed, a 64-lane arrival row.
// Boolean evaluation lowers to one bitwise op per gate per block; the
// floating-mode arrival analysis lowers to the branch-free recurrence per
// lane. On the fused ripple-carry path only the rows anything downstream
// reads — sums and carry-outs — are materialised.
//
// Noise is *not* folded in here: per-challenge arbiter noise is drawn by the
// core batch layer from per-item rng.SubSeedN streams after the deltas are
// extracted, in the exact order of the scalar path, so determinism contracts
// (bit-identical at any worker count) carry over unchanged.

// Lanes is the bitslice width: challenges evaluated per RunBlock.
const Lanes = 64

// laneZeros is the arrival row of a chain's t=0 carry-in; read-only.
var laneZeros [Lanes]float64

// SlicedEngine evaluates the compiled levelized floating-mode analysis for
// up to Lanes challenges per pass over a fixed program/delay-table pair. It
// reuses internal buffers across calls; a SlicedEngine is not safe for
// concurrent use (clone it — see SlicedPool).
type SlicedEngine struct {
	prog   *Program
	delays delay.Table
	// constArr holds challenge-independent arrivals: 0 for classZeroArr,
	// the delay-table-derived constant for classConstArr; unused for
	// classVar. Recomputed by SetDelays.
	constArr []float64
	// values holds one value word per net: bit l = the net's value for
	// challenge lane l.
	values []uint64
	// arrival holds per-lane arrival rows, lane-major (arrival[g*Lanes+l]).
	// Only rows of stored gates are maintained.
	arrival []float64
	lanes   int
}

// NewSlicedEngine returns a bitsliced engine over the compiled program with
// the given per-gate delay table.
func NewSlicedEngine(p *Program, delays delay.Table) *SlicedEngine {
	e := &SlicedEngine{
		prog:     p,
		constArr: make([]float64, len(p.nl.Gates)),
		values:   make([]uint64, len(p.nl.Gates)),
		arrival:  make([]float64, len(p.nl.Gates)*Lanes),
	}
	e.initConstValues()
	e.SetDelays(delays)
	return e
}

func (e *SlicedEngine) initConstValues() {
	for g := range e.prog.nl.Gates {
		if e.prog.nl.Gates[g].Kind == netlist.Const1 {
			e.values[g] = ^uint64(0)
		}
	}
}

// SetDelays replaces the delay table (e.g. for a new operating corner) and
// recomputes the challenge-independent arrivals.
func (e *SlicedEngine) SetDelays(delays delay.Table) {
	e.prog.constArrivals(delays, e.constArr)
	e.delays = delays
}

// Clone returns a new SlicedEngine over the same (immutable, shared) program
// and delay table with private scratch, for parallel evaluation.
func (e *SlicedEngine) Clone() *SlicedEngine {
	engineClones.Inc()
	c := &SlicedEngine{
		prog:     e.prog,
		delays:   e.delays,
		constArr: append([]float64(nil), e.constArr...),
		values:   make([]uint64, len(e.prog.nl.Gates)),
		arrival:  make([]float64, len(e.prog.nl.Gates)*Lanes),
	}
	c.initConstValues()
	return c
}

// Netlist returns the engine's netlist (shared, read-only).
func (e *SlicedEngine) Netlist() *netlist.Netlist { return e.prog.nl }

// GatesPerRun returns how many gates one lane of one RunBlock evaluates —
// the per-challenge denominator of the gate-evals/s metric, matching the
// scalar engine.
func (e *SlicedEngine) GatesPerRun() int { return e.prog.GatesPerRun() }

// Fused reports whether the engine runs the fused ripple-carry program.
func (e *SlicedEngine) Fused() bool { return e.prog.Fused() }

// RunBlock evaluates lanes challenges in one pass. inputs[i] packs primary
// input i across the block: bit l is input i's value for challenge lane l.
// Lanes ≥ lanes (the tail of a short block) must be packed as zero; they are
// computed but carry no meaning and must not be read back.
//
// Aliasing contract: results read via Value/ArrivalLanes are engine-owned
// and overwritten by the next RunBlock.
func (e *SlicedEngine) RunBlock(inputs []uint64, lanes int) {
	nl := e.prog.nl
	if len(inputs) != len(nl.Inputs) {
		panic(fmt.Sprintf("sim: %d input words for netlist with %d inputs", len(inputs), len(nl.Inputs)))
	}
	if lanes < 1 || lanes > Lanes {
		panic(fmt.Sprintf("sim: RunBlock of %d lanes", lanes))
	}
	for i, g := range nl.Inputs {
		e.values[g] = inputs[i]
	}
	if e.prog.rca != nil {
		e.runRCA()
	} else {
		e.runGeneric()
	}
	e.lanes = lanes
	bitslicePasses.Inc()
	// Effective work: every active lane is a full levelized evaluation.
	gateEvals.Add(uint64(len(nl.Order)) * uint64(lanes))
}

// LastLanes returns the active lane count of the most recent RunBlock.
func (e *SlicedEngine) LastLanes() int { return e.lanes }

// Value returns net g's value for challenge lane l of the last RunBlock.
func (e *SlicedEngine) Value(g, l int) uint8 {
	return uint8(e.values[g]>>l) & 1
}

// ArrivalLanes returns net g's per-lane arrival row for the last RunBlock,
// or nil when the gate's arrival is challenge-independent — read it from
// ConstArrival instead. Rows are engine-owned scratch (see RunBlock).
func (e *SlicedEngine) ArrivalLanes(g int) []float64 {
	if !e.prog.stored[g] {
		return nil
	}
	return e.arrival[g*Lanes : g*Lanes+Lanes : g*Lanes+Lanes]
}

// ConstArrival returns the challenge-independent arrival of a gate for which
// ArrivalLanes returned nil. It panics on elided gates (see ArrivalElided).
func (e *SlicedEngine) ConstArrival(g int) float64 {
	if e.prog.stored[g] || e.prog.class[g] == classVar {
		panic(fmt.Sprintf("sim: ConstArrival of variable-arrival gate %d", g))
	}
	return e.constArr[g]
}

// ArrivalElided reports whether gate g's arrival is not recoverable from
// this engine: the fused carry-chain program keeps only the rows anything
// downstream reads (sums, carries, const-arrival gates), eliding interior
// full-adder nets. Primary outputs are never elided.
func (e *SlicedEngine) ArrivalElided(g int) bool {
	return !e.prog.stored[g] && e.prog.class[g] == classVar
}

// runRCA executes the fused carry-chain program: per stage, five gates'
// values in five bitwise ops and the only two arrival rows anything reads
// (sum, carry-out) in one register-resident lane loop.
func (e *SlicedEngine) runRCA() {
	if e.prog.rca.paired {
		e.runPairedRCA()
		return
	}
	for ci := range e.prog.rca.chains {
		ch := &e.prog.rca.chains[ci]
		carryWord := e.values[ch.cin]
		carry := &laneZeros // the chain's carry-in arrives at t=0 in every lane
		for si := range ch.stages {
			st := &ch.stages[si]
			wa, wb := e.values[st.a], e.values[st.b]
			ws1 := wa ^ wb
			wc1 := wa & wb
			wc2 := ws1 & carryWord
			wco := wc1 | wc2
			e.values[st.s1] = ws1
			e.values[st.c1] = wc1
			e.values[st.c2] = wc2
			e.values[st.sum] = ws1 ^ carryWord
			e.values[st.cout] = wco
			sumRow := (*[Lanes]float64)(e.arrival[st.sum*Lanes:])
			coutRow := (*[Lanes]float64)(e.arrival[st.cout*Lanes:])
			fusedFAStage(e.stageConsts(st), carry, ws1, carryWord, wc1, wc2, sumRow, coutRow)
			carry = coutRow
			carryWord = wco
		}
	}
}

// stageConsts are one full adder's constants for faLane: the arrivals of s1
// and c1 as bit patterns, and the delays of sum, c2 and cout.
type stageConsts struct {
	as1, ac1         uint64
	dSum, dC2, dCout float64
}

func (e *SlicedEngine) stageConsts(st *rcaStage) stageConsts {
	d := e.delays.Ps
	return stageConsts{
		as1: math.Float64bits(e.constArr[st.s1]), ac1: math.Float64bits(e.constArr[st.c1]),
		dSum: d[st.sum], dC2: d[st.c2], dCout: d[st.cout],
	}
}

// fusedFAStage runs faLane over the 64 lanes of one full-adder stage: the
// carry row is the previous stage's carry-out arrivals, the words the
// stage's value bits per lane.
func fusedFAStage(k stageConsts, carry *[Lanes]float64, ws1, wc, wc1, wc2 uint64, sumRow, coutRow *[Lanes]float64) {
	as1, ac1, dSum, dC2, dCout := k.as1, k.ac1, k.dSum, k.dC2, k.dCout
	for l := 0; l < Lanes; l++ {
		_, co := faLane(as1, ac1, dSum, dC2, dCout, math.Float64bits(carry[l]), ws1&1, wc&1, wc1&1, wc2&1, &sumRow[l])
		coutRow[l] = math.Float64frombits(co)
		ws1 >>= 1
		wc >>= 1
		wc1 >>= 1
		wc2 >>= 1
	}
}

// runPairedRCA is runRCA for the two-ALU race: both chains see the same
// operand and carry *values*, so the word layer runs once per stage and the
// lane loop advances both chains together — half the bit extraction, and
// two independent dependency chains per iteration for the CPU to overlap.
func (e *SlicedEngine) runPairedRCA() {
	chA := &e.prog.rca.chains[0]
	chB := &e.prog.rca.chains[1]
	carryWord := e.values[chA.cin]
	carrA, carrB := &laneZeros, &laneZeros
	for si := range chA.stages {
		stA, stB := &chA.stages[si], &chB.stages[si]
		wa, wb := e.values[stA.a], e.values[stA.b]
		ws1 := wa ^ wb
		wc1 := wa & wb
		wc2 := ws1 & carryWord
		wco := wc1 | wc2
		sumWord := ws1 ^ carryWord
		e.values[stA.s1], e.values[stB.s1] = ws1, ws1
		e.values[stA.c1], e.values[stB.c1] = wc1, wc1
		e.values[stA.c2], e.values[stB.c2] = wc2, wc2
		e.values[stA.sum], e.values[stB.sum] = sumWord, sumWord
		e.values[stA.cout], e.values[stB.cout] = wco, wco
		sumA := (*[Lanes]float64)(e.arrival[stA.sum*Lanes:])
		coutA := (*[Lanes]float64)(e.arrival[stA.cout*Lanes:])
		sumB := (*[Lanes]float64)(e.arrival[stB.sum*Lanes:])
		coutB := (*[Lanes]float64)(e.arrival[stB.cout*Lanes:])
		pairedFAStage(e.stageConsts(stA), e.stageConsts(stB), carrA, carrB, ws1, carryWord, wc1, wc2,
			sumA, coutA, sumB, coutB)
		carrA, carrB = coutA, coutB
		carryWord = wco
	}
}

// pairedFAStage is fusedFAStage over both ALUs' same-index stages at once:
// one bit extraction per lane feeds both chains' faLane.
func pairedFAStage(kA, kB stageConsts, carrA, carrB *[Lanes]float64, ws1, wc, wc1, wc2 uint64,
	sumA, coutA, sumB, coutB *[Lanes]float64) {
	as1A, ac1A, dSumA, dC2A, dCoutA := kA.as1, kA.ac1, kA.dSum, kA.dC2, kA.dCout
	as1B, ac1B, dSumB, dC2B, dCoutB := kB.as1, kB.ac1, kB.dSum, kB.dC2, kB.dCout
	for l := 0; l < Lanes; l++ {
		b1 := ws1 & 1
		b2 := wc & 1
		b3 := wc1 & 1
		b4 := wc2 & 1
		ws1 >>= 1
		wc >>= 1
		wc1 >>= 1
		wc2 >>= 1
		_, coA := faLane(as1A, ac1A, dSumA, dC2A, dCoutA, math.Float64bits(carrA[l]), b1, b2, b3, b4, &sumA[l])
		coutA[l] = math.Float64frombits(coA)
		_, coB := faLane(as1B, ac1B, dSumB, dC2B, dCoutB, math.Float64bits(carrB[l]), b1, b2, b3, b4, &sumB[l])
		coutB[l] = math.Float64frombits(coB)
	}
}

// runGeneric is the exact fallback for netlists that are not pure
// ripple-carry chains: per-gate bitsliced kernels in topological order.
func (e *SlicedEngine) runGeneric() {
	nl := e.prog.nl
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		switch e.prog.class[g] {
		case classZeroArr:
			continue // inputs installed by RunBlock, constants preset
		case classConstArr:
			e.values[g] = e.valueWord(gate)
			continue
		}
		e.values[g] = e.valueWord(gate)
		e.arrVar(g, gate)
	}
}

// valueWord evaluates one gate's value word from its fanin words.
func (e *SlicedEngine) valueWord(gate *netlist.Gate) uint64 {
	var w uint64
	switch gate.Kind {
	case netlist.Buf:
		w = e.values[gate.Fanin[0]]
	case netlist.Not:
		w = ^e.values[gate.Fanin[0]]
	case netlist.And, netlist.Nand:
		w = ^uint64(0)
		for _, f := range gate.Fanin {
			w &= e.values[f]
		}
		if gate.Kind == netlist.Nand {
			w = ^w
		}
	case netlist.Or, netlist.Nor:
		for _, f := range gate.Fanin {
			w |= e.values[f]
		}
		if gate.Kind == netlist.Nor {
			w = ^w
		}
	case netlist.Xor, netlist.Xnor:
		for _, f := range gate.Fanin {
			w ^= e.values[f]
		}
		if gate.Kind == netlist.Xnor {
			w = ^w
		}
	}
	return w
}

// faninRow returns fanin f's arrival lanes, broadcasting a constant arrival
// into scratch when the fanin has no materialised row.
func (e *SlicedEngine) faninRow(f int, scratch *[Lanes]float64) *[Lanes]float64 {
	if e.prog.stored[f] {
		return (*[Lanes]float64)(e.arrival[f*Lanes:])
	}
	c := e.constArr[f]
	for l := range scratch {
		scratch[l] = c
	}
	return scratch
}

// arrVar computes the arrival row of a variable-arrival gate.
func (e *SlicedEngine) arrVar(g int, gate *netlist.Gate) {
	out := (*[Lanes]float64)(e.arrival[g*Lanes:])
	d := e.delays.Ps[g]
	var s0, s1 [Lanes]float64
	switch gate.Kind {
	case netlist.Buf, netlist.Not:
		// classVar with one fanin ⇒ the fanin itself is variable-arrival.
		in := (*[Lanes]float64)(e.arrival[gate.Fanin[0]*Lanes:])
		for l := 0; l < Lanes; l++ {
			out[l] = in[l] + d
		}
	case netlist.Xor, netlist.Xnor:
		if len(gate.Fanin) != 2 {
			e.arrNary(g, gate, out)
			return
		}
		t0 := e.faninRow(gate.Fanin[0], &s0)
		t1 := e.faninRow(gate.Fanin[1], &s1)
		for l := 0; l < Lanes; l++ {
			out[l] = max(t0[l], t1[l]) + d
		}
	default: // And, Or, Nand, Nor — same timing, value inversion is elsewhere
		if len(gate.Fanin) != 2 {
			e.arrNary(g, gate, out)
			return
		}
		add := &andAdd
		if gate.Kind == netlist.Or || gate.Kind == netlist.Nor {
			add = &orAdd
		}
		f0, f1 := gate.Fanin[0], gate.Fanin[1]
		t0 := e.faninRow(f0, &s0)
		t1 := e.faninRow(f1, &s1)
		w0, w1 := e.values[f0], e.values[f1]
		for l := 0; l < Lanes; l++ {
			a0, a1 := t0[l], t1[l]
			m := max(a0, a1)
			out[l] = min(min(a0+add[w0&1], a1+add[w1&1]), m) + d
			w0 >>= 1
			w1 >>= 1
		}
	}
}

// arrNary replicates the scalar fanin scan per lane for wide (n-ary) gates —
// the carry-lookahead adder's group terms take up to five fanins.
func (e *SlicedEngine) arrNary(g int, gate *netlist.Gate, out *[Lanes]float64) {
	d := e.delays.Ps[g]
	ctrl, hasCtrl := gate.Kind.ControllingValue()
	for l := 0; l < Lanes; l++ {
		controlled := false
		tCtrl := posInf
		tMax := 0.0
		for _, f := range gate.Fanin {
			var ta float64
			if e.prog.stored[f] {
				ta = e.arrival[f*Lanes+l]
			} else {
				ta = e.constArr[f]
			}
			if hasCtrl && uint8(e.values[f]>>l)&1 == ctrl {
				controlled = true
				if ta < tCtrl {
					tCtrl = ta
				}
			}
			if ta > tMax {
				tMax = ta
			}
		}
		if controlled {
			out[l] = tCtrl + d
		} else {
			out[l] = tMax + d
		}
	}
}
