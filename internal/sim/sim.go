// Package sim provides the gate-level timing engines used to evaluate the
// ALU PUF.
//
// The levelized engines perform floating-mode arrival-time analysis in a
// single topological pass: for every net they compute both its Boolean value
// and the time at which that value becomes determined, taking controlling
// values into account (an AND output is determined as soon as its earliest
// 0-input arrives). A netlist is compiled once into a Program (program.go),
// which both levelized engines run: Engine one challenge per pass (the
// attestation session path), SlicedEngine 64 challenges per pass (the batch
// path, bitslice.go). They are allocation-free per query and orders of
// magnitude faster than event-driven simulation.
//
// The event-driven engine (EventSim) is a classic inertial-delay logic
// simulator with a time-ordered event queue. It reproduces actual signal
// transitions, including glitches on the ripple-carry chain, and supports
// "latch at time T" semantics: reading every net's value at an arbitrary
// cutoff time. That is exactly the behaviour needed to model the
// overclocking attack of Section 4.2, where a too-short clock period latches
// the PUF output flip-flops before the adder has settled.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
)

// Engine runs the compiled levelized floating-mode analysis one challenge
// per Run (lane width 1) over a fixed program/delay-table pair. Fused
// programs run the ripple-carry kernel (faLane); others the generic
// per-gate walk. It reuses internal buffers across calls; an Engine is not
// safe for concurrent use.
type Engine struct {
	prog   *Program
	delays delay.Table
	values []uint8
	// arrival holds every net's arrival; the challenge-independent entries
	// are written once per delay table (SetDelays), the rest by each Run.
	arrival []float64
}

// NewEngine returns a single-lane engine over the compiled program with the
// given per-gate delay table.
func NewEngine(p *Program, delays delay.Table) *Engine {
	e := &Engine{
		prog:    p,
		values:  make([]uint8, len(p.nl.Gates)),
		arrival: make([]float64, len(p.nl.Gates)),
	}
	// Constants never change value; Run writes every other net's.
	for g := range p.nl.Gates {
		if p.nl.Gates[g].Kind == netlist.Const1 {
			e.values[g] = 1
		}
	}
	e.SetDelays(delays)
	return e
}

// SetDelays replaces the delay table (e.g. for a new operating corner).
func (e *Engine) SetDelays(delays delay.Table) {
	e.prog.constArrivals(delays, e.arrival)
	e.delays = delays
}

// Clone returns a new Engine over the same (immutable, shared) program and
// delay table but with its own value/arrival scratch buffers. Cloning is the
// cheap path to parallel evaluation: clones may run concurrently with each
// other and with the original, as long as nobody calls SetDelays while runs
// are in flight. See Pool for clone reuse.
func (e *Engine) Clone() *Engine {
	engineClones.Inc()
	return &Engine{
		prog:    e.prog,
		delays:  e.delays,
		values:  append([]uint8(nil), e.values...),
		arrival: append([]float64(nil), e.arrival...),
	}
}

// Netlist returns the engine's netlist (shared, read-only).
func (e *Engine) Netlist() *netlist.Netlist { return e.prog.nl }

// GatesPerRun returns how many gates one Run call evaluates — the
// denominator of the gate-evals/s throughput metric.
func (e *Engine) GatesPerRun() int { return e.prog.GatesPerRun() }

// Run evaluates the netlist for the given primary-input vector and returns
// every net's value and arrival time.
//
// Aliasing contract: the returned slices are owned by the engine and are
// overwritten in place by the next Run call — callers must finish reading
// (or copy) them before re-running the engine, and must never retain or
// modify them. TestRunAliasingContract enforces this so that callers which
// accidentally rely on stable storage fail loudly rather than silently when
// engine internals change.
func (e *Engine) Run(inputs []uint8) (values []uint8, arrival []float64) {
	nl := e.prog.nl
	if len(inputs) != len(nl.Inputs) {
		panic(fmt.Sprintf("sim: %d inputs for netlist with %d", len(inputs), len(nl.Inputs)))
	}
	for i, g := range nl.Inputs {
		e.values[g] = inputs[i] & 1
	}
	switch rca := e.prog.rca; {
	case rca == nil:
		e.runGeneric()
	case rca.paired:
		e.runPaired()
	default:
		for ci := range rca.chains {
			e.runChain(&rca.chains[ci])
		}
	}
	levelizedPasses.Inc()
	gateEvals.Add(uint64(len(nl.Order)))
	return e.values, e.arrival
}

// runChain is the fused kernel at lane width 1 over one carry chain: per
// stage, five gates' values in five bit ops and the three variable arrivals
// from the stage's constant arrivals and delays plus the running carry
// arrival.
func (e *Engine) runChain(ch *rcaChain) {
	v, arr, d := e.values, e.arrival, e.delays.Ps
	c := uint64(v[ch.cin])
	var tc uint64 // the chain's carry-in arrives at t=0
	for si := range ch.stages {
		st := &ch.stages[si]
		a, b := uint64(v[st.a]), uint64(v[st.b])
		s1, c1 := a^b, a&b
		c2 := s1 & c
		v[st.s1], v[st.c1], v[st.c2] = uint8(s1), uint8(c1), uint8(c2)
		v[st.sum], v[st.cout] = uint8(s1^c), uint8(c1|c2)
		t2, co := faLane(math.Float64bits(arr[st.s1]), math.Float64bits(arr[st.c1]), d[st.sum], d[st.c2], d[st.cout],
			tc, s1, c, c1, c2, &arr[st.sum])
		arr[st.c2], arr[st.cout] = math.Float64frombits(t2), math.Float64frombits(co)
		c, tc = c1|c2, co
	}
}

// runPaired is runChain for the two-ALU race: both chains see the same
// operand and carry values, so the value layer runs once per stage and the
// two chains' independent arrival recurrences advance together.
func (e *Engine) runPaired() {
	v, arr, d := e.values, e.arrival, e.delays.Ps
	chA, chB := &e.prog.rca.chains[0], &e.prog.rca.chains[1]
	stsB := chB.stages[:len(chA.stages)]
	c := uint64(v[chA.cin])
	var tA, tB uint64 // the carry-in arrives at t=0
	for si := range chA.stages {
		stA, stB := &chA.stages[si], &stsB[si]
		a, b := uint64(v[stA.a]), uint64(v[stA.b])
		s1, c1 := a^b, a&b
		c2 := s1 & c
		sumV, coV := uint8(s1^c), uint8(c1|c2)
		v[stA.s1], v[stA.c1], v[stA.c2], v[stA.sum], v[stA.cout] = uint8(s1), uint8(c1), uint8(c2), sumV, coV
		v[stB.s1], v[stB.c1], v[stB.c2], v[stB.sum], v[stB.cout] = uint8(s1), uint8(c1), uint8(c2), sumV, coV
		t2A, coA := faLane(math.Float64bits(arr[stA.s1]), math.Float64bits(arr[stA.c1]), d[stA.sum], d[stA.c2], d[stA.cout],
			tA, s1, c, c1, c2, &arr[stA.sum])
		t2B, coB := faLane(math.Float64bits(arr[stB.s1]), math.Float64bits(arr[stB.c1]), d[stB.sum], d[stB.c2], d[stB.cout],
			tB, s1, c, c1, c2, &arr[stB.sum])
		arr[stA.c2], arr[stA.cout] = math.Float64frombits(t2A), math.Float64frombits(coA)
		arr[stB.c2], arr[stB.cout] = math.Float64frombits(t2B), math.Float64frombits(coB)
		c, tA, tB = c1|c2, coA, coB
	}
}

// runGeneric is the per-gate floating-mode walk: the fallback for netlists
// that are not pure ripple-carry chains, and (via Program.Generic) the
// reference the fused kernels are checked against.
func (e *Engine) runGeneric() {
	nl := e.prog.nl
	delays := e.delays.Ps
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		switch gate.Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue // values set by Run and NewEngine, arrivals 0 by SetDelays
		}
		d := delays[g]
		ctrl, hasCtrl := gate.Kind.ControllingValue()
		var val uint8
		var t float64
		switch gate.Kind {
		case netlist.Buf:
			val = e.values[gate.Fanin[0]]
			t = e.arrival[gate.Fanin[0]]
		case netlist.Not:
			val = e.values[gate.Fanin[0]] ^ 1
			t = e.arrival[gate.Fanin[0]]
		default:
			// Compute value and the determination time in one scan.
			controlled := false
			tCtrl := math.Inf(1)
			tMax := 0.0
			switch gate.Kind {
			case netlist.And, netlist.Nand:
				val = 1
			case netlist.Or, netlist.Nor:
				val = 0
			default:
				val = 0
			}
			for _, f := range gate.Fanin {
				v := e.values[f]
				ta := e.arrival[f]
				switch gate.Kind {
				case netlist.And, netlist.Nand:
					val &= v
				case netlist.Or, netlist.Nor:
					val |= v
				case netlist.Xor, netlist.Xnor:
					val ^= v
				}
				if hasCtrl && v == ctrl {
					controlled = true
					if ta < tCtrl {
						tCtrl = ta
					}
				}
				if ta > tMax {
					tMax = ta
				}
			}
			switch gate.Kind {
			case netlist.Nand, netlist.Nor, netlist.Xnor:
				val ^= 1
			}
			if controlled {
				t = tCtrl
			} else {
				t = tMax
			}
		}
		e.values[g] = val
		e.arrival[g] = t + d
	}
}

// event is one scheduled output transition in the event-driven simulator.
type event struct {
	t    float64
	seq  uint64
	gate int
	val  uint8
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// EventSim is an inertial-delay event-driven logic simulator.
type EventSim struct {
	nl         *netlist.Netlist
	delays     delay.Table
	values     []uint8
	lastChange []float64
	pendSeq    []uint64 // active pending-event sequence per gate, 0 = none
	pendVal    []uint8
	queue      eventHeap
	now        float64
	seq        uint64
	transits   uint64
	unflushed  uint64 // events processed, not yet flushed to the counter
	// OnTransition, when set, observes every committed signal transition
	// (waveform dumping, activity analysis). It must not mutate the
	// simulator.
	OnTransition func(gate int, t float64, v uint8)
}

// NewEventSim returns an event-driven simulator over the netlist with the
// given per-gate delay table, initialised to the all-zero quiescent state.
func NewEventSim(nl *netlist.Netlist, delays delay.Table) *EventSim {
	if len(delays.Ps) != len(nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(nl.Gates)))
	}
	s := &EventSim{
		nl:         nl,
		delays:     delays,
		values:     make([]uint8, len(nl.Gates)),
		lastChange: make([]float64, len(nl.Gates)),
		pendSeq:    make([]uint64, len(nl.Gates)),
		pendVal:    make([]uint8, len(nl.Gates)),
	}
	s.Settle(make([]uint8, len(nl.Inputs)))
	return s
}

// Settle initialises the simulator to the quiescent state reached with the
// given primary inputs: all nets take their zero-delay values and all
// last-change times reset to 0; time restarts at 0.
func (s *EventSim) Settle(inputs []uint8) {
	val := s.nl.Evaluate(inputs)
	copy(s.values, val)
	for i := range s.lastChange {
		s.lastChange[i] = 0
		s.pendSeq[i] = 0
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.transits = 0
	s.flushTelemetry()
}

// flushTelemetry publishes locally-batched event counts (one atomic add
// instead of one per event in the simulation loop).
func (s *EventSim) flushTelemetry() {
	if s.unflushed > 0 {
		eventsProcessed.Add(s.unflushed)
		s.unflushed = 0
	}
}

// Apply changes the primary inputs at the current simulation time and
// schedules the resulting gate evaluations. Inputs transition with zero
// delay.
func (s *EventSim) Apply(inputs []uint8) {
	if len(inputs) != len(s.nl.Inputs) {
		panic(fmt.Sprintf("sim: %d inputs for netlist with %d", len(inputs), len(s.nl.Inputs)))
	}
	for i, g := range s.nl.Inputs {
		v := inputs[i] & 1
		if s.values[g] == v {
			continue
		}
		s.values[g] = v
		s.lastChange[g] = s.now
		s.transits++
		if s.OnTransition != nil {
			s.OnTransition(g, s.now, v)
		}
		for _, f := range s.nl.Fanout[g] {
			s.scheduleGate(f)
		}
	}
}

// scheduleGate re-evaluates gate f against current input values and
// schedules or cancels its output transition (inertial delay: a newer
// evaluation supersedes a pending one).
func (s *EventSim) scheduleGate(f int) {
	gate := &s.nl.Gates[f]
	switch gate.Kind {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return
	}
	var buf [8]uint8
	in := buf[:0]
	for _, fn := range gate.Fanin {
		in = append(in, s.values[fn])
	}
	newVal := gate.Kind.Eval(in)
	if s.pendSeq[f] != 0 {
		if s.pendVal[f] == newVal {
			return // pending transition already heads to the right value
		}
		s.pendSeq[f] = 0 // cancel: the pulse was swallowed or superseded
	}
	if newVal == s.values[f] {
		return
	}
	s.seq++
	s.pendSeq[f] = s.seq
	s.pendVal[f] = newVal
	s.queue.pushEvent(event{t: s.now + s.delays.Ps[f], seq: s.seq, gate: f, val: newVal})
}

// step processes the earliest event. It reports whether an event was
// processed.
func (s *EventSim) step() bool {
	for len(s.queue) > 0 {
		ev := s.queue.popEvent()
		if s.pendSeq[ev.gate] != ev.seq {
			continue // cancelled
		}
		s.pendSeq[ev.gate] = 0
		s.now = ev.t
		s.unflushed++
		if s.values[ev.gate] == ev.val {
			return true
		}
		s.values[ev.gate] = ev.val
		s.lastChange[ev.gate] = ev.t
		s.transits++
		if s.OnTransition != nil {
			s.OnTransition(ev.gate, ev.t, ev.val)
		}
		for _, f := range s.nl.Fanout[ev.gate] {
			s.scheduleGate(f)
		}
		return true
	}
	return false
}

// Run processes events until the circuit is quiescent and returns the final
// simulation time.
func (s *EventSim) Run() float64 {
	for s.step() {
	}
	s.flushTelemetry()
	return s.now
}

// RunUntil processes events with time <= t, then advances the clock to t.
// Pending events beyond t remain queued. This is the latch-at-time-T
// primitive used by the overclocking model.
func (s *EventSim) RunUntil(t float64) {
	for len(s.queue) > 0 {
		// Drop stale heads so peek sees a live event.
		if s.pendSeq[s.queue.peek().gate] != s.queue.peek().seq {
			s.queue.popEvent()
			continue
		}
		if s.queue.peek().t > t {
			break
		}
		s.step()
	}
	if t > s.now {
		s.now = t
	}
	s.flushTelemetry()
}

// Value returns the current value of net g.
func (s *EventSim) Value(g int) uint8 { return s.values[g] }

// LastChange returns the time of the most recent transition on net g (0 if
// it has not changed since Settle).
func (s *EventSim) LastChange(g int) float64 { return s.lastChange[g] }

// Now returns the current simulation time.
func (s *EventSim) Now() float64 { return s.now }

// Pending reports whether any events remain queued.
func (s *EventSim) Pending() bool {
	for len(s.queue) > 0 {
		if s.pendSeq[s.queue.peek().gate] == s.queue.peek().seq {
			return true
		}
		s.queue.popEvent()
	}
	return false
}

// Transitions returns the total number of signal transitions simulated since
// the last Settle; a proxy for switching activity (and dynamic power).
func (s *EventSim) Transitions() uint64 { return s.transits }
