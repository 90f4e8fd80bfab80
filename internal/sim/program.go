package sim

import (
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
)

// One compiled program, two lane widths.
//
// Both levelized engines run the same compiled form of a netlist: Engine at
// lane width 1 (one challenge per Run, the attestation session path) and
// SlicedEngine at lane width 64 (one block of challenges per RunBlock, the
// batch path). Compile does the structural work once per netlist — gate
// classification and the fused ripple-carry match — and every engine, clone
// and pool over that netlist shares the result. Per delay table, each
// engine computes the challenge-independent arrivals once (constArrivals);
// the fused kernel reads them, with the gate delays, per stage.
//
// The arrival rule is the floating-mode analysis of the generic walker
// (Engine.runGeneric), lowered to branch-free form. For a controlled gate
// (AND-class, controlling value c) the walker computes
//
//	t = min over fanins with value c of their arrival   (if any fanin = c)
//	t = max over all fanin arrivals (floored at 0)      (otherwise)
//
// which is exactly
//
//	t = min( min_k(t_k + add[v_k]),  max_k(t_k) )
//
// with add[v] = 0 when v is the controlling value and +Inf otherwise: when
// the gate is controlled, every controlling fanin's arrival is ≤ the max, so
// the outer min picks the earliest controlling arrival; when it is not, every
// t_k + add[v_k] is +Inf and the max wins. All arrivals are ≥ 0 (delay tables
// clamp at build time) so the 0-floor is free, and no NaN can form (no 0·Inf,
// no Inf−Inf). The result is bit-identical to the walker — the equivalence
// suites compare the two with Float64bits at both lane widths.
//
// Two structural facts about the PUF datapath make the hot path cheap:
//
//   - Const-arrival gates. A gate whose fanins all arrive at fixed times has
//     a challenge-independent arrival (only its *value* varies). In a
//     full adder, s1 = Xor(a,b) and c1 = And(a,b) read only primary inputs
//     (arrival 0), so their arrivals are pure delay-table constants —
//     computed once per bound delay table, not per challenge.
//
//   - Fused carry chains. The default datapath is two ripple-carry adders.
//     matchRCA recognises that shape exactly and the engines run a fused
//     per-stage kernel (faLane) that carries the carry arrival in registers.
//     When the two chains share operands (the two-ALU race) the stage's
//     value bits are computed once for both chains. Netlists that are not
//     pure RCA chains (the carry-lookahead ALU, random test circuits) fall
//     back to the exact generic per-gate walk.

var (
	posInf = math.Inf(1)
	// andAdd[v]/orAdd[v] turn a fanin (arrival t, value v) into a candidate
	// "earliest controlling input" term t + add[v]: finite exactly when v is
	// the gate's controlling value (AND: 0, OR: 1).
	andAdd = [2]float64{0, posInf}
	orAdd  = [2]float64{posInf, 0}
)

// gateClass partitions gates by how the compiled program handles them.
type gateClass uint8

const (
	// classZeroArr: primary inputs and constants — arrival identically 0.
	classZeroArr gateClass = iota
	// classConstArr: logic gates whose arrival is challenge-independent
	// (computed per bound delay table, never per challenge).
	classConstArr
	// classVar: arrival computed per challenge.
	classVar
)

// Program is the compiled, delay-independent form of a netlist, shared by
// every engine over it. It is immutable after Compile and safe to share
// across goroutines.
type Program struct {
	nl    *netlist.Netlist
	class []gateClass
	// stored[g] marks gates with a materialised 64-lane arrival row in a
	// SlicedEngine (ArrivalLanes). The single-lane engine keeps every net.
	stored []bool
	// rca is the fused ripple-carry program, nil when the netlist is not
	// exactly a disjoint set of full-adder chains.
	rca *rcaProgram
}

// Compile classifies every gate of the netlist and attempts the fused
// ripple-carry match. Compile once per netlist and build every engine from
// the result: the match walks the whole netlist and allocates.
func Compile(nl *netlist.Netlist) *Program {
	p := compile(nl)
	p.rca = matchRCA(nl, p.class)
	if p.rca != nil {
		for g := range p.stored {
			p.stored[g] = false
		}
		for _, ch := range p.rca.chains {
			for _, st := range ch.stages {
				p.stored[st.sum] = true
				p.stored[st.cout] = true
			}
		}
	}
	return p
}

// Generic returns the program without the fused ripple-carry match: engines
// built from it run the generic per-gate walk at either lane width. It is
// the independent reference the equivalence suites compare the fused
// kernels against.
func (p *Program) Generic() *Program { return compile(p.nl) }

// compile classifies gates (structural only, delay-independent) and marks
// every variable-arrival gate stored. Correctness never depends on the
// classification — the generic kernels are exact for every gate — it only
// decides which work can be hoisted out of the per-challenge loops.
func compile(nl *netlist.Netlist) *Program {
	p := &Program{
		nl:     nl,
		class:  make([]gateClass, len(nl.Gates)),
		stored: make([]bool, len(nl.Gates)),
	}
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		switch gate.Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			p.class[g] = classZeroArr
			continue
		}
		constArr := true
		switch gate.Kind {
		case netlist.Buf, netlist.Not, netlist.Xor, netlist.Xnor:
			// No controlling value: arrival = max(fanin arrivals) + d, so
			// the gate is const-arrival when every fanin is.
			for _, f := range gate.Fanin {
				if p.class[f] == classVar {
					constArr = false
					break
				}
			}
		default:
			// Controlled gates pick min-of-controlling vs max depending on
			// fanin *values*; their arrival is challenge-independent only in
			// the degenerate case where every fanin arrives at exactly 0
			// (either branch then yields 0).
			for _, f := range gate.Fanin {
				if p.class[f] != classZeroArr {
					constArr = false
					break
				}
			}
		}
		if constArr {
			p.class[g] = classConstArr
		} else {
			p.class[g] = classVar
			p.stored[g] = true
		}
	}
	return p
}

// Fused reports whether the netlist compiled to the fused ripple-carry
// program (vs the generic per-gate fallback).
func (p *Program) Fused() bool { return p.rca != nil }

// GatesPerRun returns how many gates one challenge's evaluation covers —
// the denominator of the gate-evals/s throughput metric.
func (p *Program) GatesPerRun() int { return len(p.nl.Order) }

// rcaStage is one matched full-adder: s1 = Xor(a,b), c1 = And(a,b),
// sum = Xor(s1,cin), c2 = And(s1,cin), cout = Or(c1,c2).
type rcaStage struct {
	a, b int // operand nets, arrival 0
	s1   int // const arrival
	c1   int // const arrival
	sum  int
	c2   int
	cout int // next stage's cin
}

// rcaChain is a maximal run of full adders linked carry-out → carry-in,
// starting from a zero-arrival carry-in net.
type rcaChain struct {
	cin    int
	stages []rcaStage
}

type rcaProgram struct {
	chains []rcaChain
	// paired marks the two-ALU special case: exactly two chains of equal
	// length sharing the same operand nets per stage and the same carry-in
	// net. Their values are then identical at every stage (same operands,
	// same carries — only delays differ), so one value computation serves
	// both chains and their independent float recurrences interleave.
	paired bool
}

// matchRCA recognises netlists that are exactly a disjoint set of standard
// full-adder ripple chains (the PUF datapath's two ALUs) and compiles them
// into the fused carry-chain program. It returns nil — generic fallback —
// unless *every* logic gate belongs to exactly one matched full adder and
// the adders link into clean chains.
func matchRCA(nl *netlist.Netlist, class []gateClass) *rcaProgram {
	otherFanin := func(g, not int) int {
		fi := nl.Gates[g].Fanin
		if fi[0] == not {
			return fi[1]
		}
		if fi[1] == not {
			return fi[0]
		}
		return -1
	}

	matched := make([]bool, len(nl.Gates))
	logic := 0
	type block struct {
		st  rcaStage
		cin int
	}
	var blocks []block
	byCout := make(map[int]int) // cout net → block index
	for s1 := range nl.Gates {
		g := &nl.Gates[s1]
		switch g.Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		logic++
		if g.Kind != netlist.Xor || len(g.Fanin) != 2 {
			continue
		}
		a, b := g.Fanin[0], g.Fanin[1]
		if class[a] != classZeroArr || class[b] != classZeroArr {
			continue
		}
		fo := nl.Fanout[s1]
		if len(fo) != 2 {
			continue
		}
		sum, c2 := fo[0], fo[1]
		if nl.Gates[sum].Kind == netlist.And && nl.Gates[c2].Kind == netlist.Xor {
			sum, c2 = c2, sum
		}
		if nl.Gates[sum].Kind != netlist.Xor || nl.Gates[c2].Kind != netlist.And ||
			len(nl.Gates[sum].Fanin) != 2 || len(nl.Gates[c2].Fanin) != 2 {
			continue
		}
		cin := otherFanin(sum, s1)
		if cin < 0 || cin == s1 || otherFanin(c2, s1) != cin {
			continue
		}
		if len(nl.Fanout[c2]) != 1 {
			continue
		}
		cout := nl.Fanout[c2][0]
		if nl.Gates[cout].Kind != netlist.Or || len(nl.Gates[cout].Fanin) != 2 {
			continue
		}
		c1 := otherFanin(cout, c2)
		if c1 < 0 {
			continue
		}
		cg := &nl.Gates[c1]
		if cg.Kind != netlist.And || len(cg.Fanin) != 2 ||
			len(nl.Fanout[c1]) != 1 || nl.Fanout[c1][0] != cout {
			continue
		}
		if !(cg.Fanin[0] == a && cg.Fanin[1] == b) && !(cg.Fanin[0] == b && cg.Fanin[1] == a) {
			continue
		}
		ok := true
		for _, m := range []int{s1, sum, c1, c2, cout} {
			if matched[m] {
				ok = false
				break
			}
		}
		if !ok {
			return nil // overlapping matches: not a clean chain structure
		}
		for _, m := range []int{s1, sum, c1, c2, cout} {
			matched[m] = true
		}
		blocks = append(blocks, block{
			st:  rcaStage{a: a, b: b, s1: s1, c1: c1, sum: sum, c2: c2, cout: cout},
			cin: cin,
		})
		byCout[cout] = len(blocks) - 1
	}
	if 5*len(blocks) != logic {
		return nil // some logic falls outside the full-adder pattern
	}

	// Link blocks into chains: a block whose cin is another block's cout
	// follows it; a block whose cin arrives at t=0 starts a chain.
	next := make(map[int]int)
	hasPred := make([]bool, len(blocks))
	for i, b := range blocks {
		if j, ok := byCout[b.cin]; ok {
			if _, dup := next[j]; dup {
				return nil // one carry feeding two stages: a tree, not a chain
			}
			next[j] = i
			hasPred[i] = true
		} else if class[b.cin] != classZeroArr {
			return nil // carry-in from unmodelled logic
		}
	}
	prog := &rcaProgram{}
	linked := 0
	for i := range blocks {
		if hasPred[i] {
			continue
		}
		ch := rcaChain{cin: blocks[i].cin}
		for j := i; ; {
			ch.stages = append(ch.stages, blocks[j].st)
			linked++
			k, ok := next[j]
			if !ok {
				break
			}
			j = k
		}
		prog.chains = append(prog.chains, ch)
	}
	if linked != len(blocks) {
		return nil
	}
	if len(prog.chains) == 2 {
		a, b := &prog.chains[0], &prog.chains[1]
		if a.cin == b.cin && len(a.stages) == len(b.stages) {
			prog.paired = true
			for i := range a.stages {
				if a.stages[i].a != b.stages[i].a || a.stages[i].b != b.stages[i].b {
					prog.paired = false
					break
				}
			}
		}
	}
	return prog
}

// checkDelays panics unless the delay table has one entry per gate.
func (p *Program) checkDelays(delays delay.Table) {
	if len(delays.Ps) != len(p.nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(p.nl.Gates)))
	}
}

// constArrivals writes the challenge-independent arrivals for one delay
// table into dst (one entry per gate): 0 for inputs and constants, the
// delay-derived constant for const-arrival gates. Variable-arrival entries
// are left untouched. Engines call it once per delay table, never per run.
func (p *Program) constArrivals(delays delay.Table, dst []float64) {
	p.checkDelays(delays)
	for _, g := range p.nl.Order {
		switch p.class[g] {
		case classZeroArr:
			dst[g] = 0
		case classConstArr:
			// Walker semantics: max over fanin arrivals, floored at 0. For
			// AND-class const gates every fanin arrives at 0, where the
			// controlled/uncontrolled branches coincide.
			t := 0.0
			for _, f := range p.nl.Gates[g].Fanin {
				if dst[f] > t {
					t = dst[f]
				}
			}
			dst[g] = t + delays.Ps[g]
		}
	}
}

// faLane is the fused full-adder arrival kernel for one lane, shared by
// both lane widths. Given the stage's constants — the challenge-independent
// arrivals as1 of s1 = Xor(a,b) and ac1 of c1 = And(a,b) as bit patterns,
// and the delays of sum, c2 and cout — the carry-in arrival tc and
// the lane's value bits of s1, the carry-in, c1 and c2 (each 0 or 1), it
// stores the sum's arrival and returns the arrivals of c2 and the carry-out.
// Derivation, exact vs the walker:
//
//	sum  = Xor(s1, cin):  no controlling value → max(as1, tc) + dSum
//	c2   = And(s1, cin):  min(min-of-controlling, max) + dC2 (andAdd trick)
//	cout = Or(c1, c2):    min(min-of-controlling, max) + dCout (orAdd trick)
//
// The min/max run on IEEE bit patterns: arrivals are non-negative (never
// -0, never NaN), and for such doubles the uint64 bit patterns order exactly
// like the values, so integer min/max — branch-free conditional moves — pick
// the same operand the float comparison would. A non-controlling fanin's
// "t + Inf" term becomes t OR'ed with all ones, which exceeds every arrival
// and never wins a min that also holds the finite max term. Only the three
// delay additions run in floating point, so the results are bit-identical.
//
// Arrivals pass as bit patterns (math.Float64bits of the stored value), the
// constants as scalars so that a 64-lane caller hoists them into registers
// ahead of its lane loop, and the sum is stored as soon as it is known.
func faLane(as1, ac1 uint64, dSum, dC2, dCout float64, tc, bs1, bc, bc1, bc2 uint64, sum *float64) (c2, cout uint64) {
	m := max(as1, tc)
	*sum = math.Float64frombits(m) + dSum
	c2 = math.Float64bits(math.Float64frombits(min(as1|-bs1, tc|-bc, m)) + dC2)
	cout = math.Float64bits(math.Float64frombits(min(ac1|(bc1-1), c2|(bc2-1), max(ac1, c2))) + dCout)
	return c2, cout
}
