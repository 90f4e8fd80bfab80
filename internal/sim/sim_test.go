package sim

import (
	"math"
	"testing"
	"testing/quick"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

// unitDelays returns a table assigning delay 1.0 to every logic gate and 0
// to pseudo-gates, so expected arrival times can be computed by hand.
func unitDelays(nl *netlist.Netlist) delay.Table {
	t := delay.Table{Ps: make([]float64, len(nl.Gates))}
	for g := range nl.Gates {
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
		default:
			t.Ps[g] = 1
		}
	}
	return t
}

func randomTable(nl *netlist.Netlist, src *rng.Source) delay.Table {
	t := delay.Table{Ps: make([]float64, len(nl.Gates))}
	for g := range nl.Gates {
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
		default:
			t.Ps[g] = 5 + 10*src.Float64()
		}
	}
	return t
}

func TestArrivalValuesMatchFunctionalEvaluation(t *testing.T) {
	nl := netlist.BuildRCANetlist(8)
	eng := NewEngine(Compile(nl), randomTable(nl, rng.New(1)))
	src := rng.New(2)
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < 200; trial++ {
		src.Bits(in)
		vals, _ := eng.Run(in)
		want := nl.Evaluate(in)
		for g := range want {
			if vals[g] != want[g] {
				t.Fatalf("trial %d: net %d value %d, want %d", trial, g, vals[g], want[g])
			}
		}
	}
}

func TestArrivalChainOfInverters(t *testing.T) {
	b := netlist.NewBuilder()
	a := b.Input("a")
	n1 := b.Gate(netlist.Not, a)
	n2 := b.Gate(netlist.Not, n1)
	n3 := b.Gate(netlist.Not, n2)
	b.Output("y", n3)
	nl := b.MustBuild()
	eng := NewEngine(Compile(nl), unitDelays(nl))
	_, arr := eng.Run([]uint8{1})
	if arr[n3] != 3 {
		t.Errorf("three-inverter chain arrival = %v, want 3", arr[n3])
	}
}

func TestArrivalControllingValueShortCircuits(t *testing.T) {
	// AND(slow_path, 0): output is determined by the 0 input immediately,
	// not after the slow path settles.
	b := netlist.NewBuilder()
	fast := b.Input("fast")
	slow0 := b.Input("slow")
	s1 := b.Gate(netlist.Not, slow0)
	s2 := b.Gate(netlist.Not, s1)
	s3 := b.Gate(netlist.Not, s2) // slow path: arrival 3
	y := b.Gate(netlist.And, fast, s3)
	b.Output("y", y)
	nl := b.MustBuild()
	eng := NewEngine(Compile(nl), unitDelays(nl))

	// fast=0 controls the AND: arrival = 0 + 1.
	_, arr := eng.Run([]uint8{0, 0})
	if arr[y] != 1 {
		t.Errorf("controlled AND arrival = %v, want 1", arr[y])
	}
	// fast=1, slow path non-controlling at 1 (NOT NOT NOT 0 = 1)? slow=0 →
	// s3=1 → AND(1,1)=1: all inputs non-controlling → max + 1 = 4.
	_, arr = eng.Run([]uint8{1, 0})
	if arr[y] != 4 {
		t.Errorf("uncontrolled AND arrival = %v, want 4", arr[y])
	}
	// fast=1, slow=1 → s3=0 controls at time 3 → arrival 4.
	_, arr = eng.Run([]uint8{1, 1})
	if arr[y] != 4 {
		t.Errorf("late-controlled AND arrival = %v, want 4", arr[y])
	}
}

func TestArrivalXorAlwaysWaitsForAllInputs(t *testing.T) {
	b := netlist.NewBuilder()
	x := b.Input("x")
	yIn := b.Input("y")
	slow := b.Gate(netlist.Not, yIn)
	out := b.Gate(netlist.Xor, x, slow)
	b.Output("o", out)
	nl := b.MustBuild()
	eng := NewEngine(Compile(nl), unitDelays(nl))
	for v := 0; v < 4; v++ {
		_, arr := eng.Run([]uint8{uint8(v & 1), uint8(v >> 1)})
		if arr[out] != 2 {
			t.Errorf("XOR arrival for inputs %d = %v, want 2", v, arr[out])
		}
	}
}

func TestArrivalCarryChainDependsOnOperands(t *testing.T) {
	// The paper: carry propagation makes MSB arrival depend on operand
	// values. A long carry chain (0xFF + 0x01) must settle later than a
	// no-carry addition (0x00 + 0x00) at the MSB sum.
	nl := netlist.BuildRCANetlist(8)
	eng := NewEngine(Compile(nl), unitDelays(nl))
	msb := nl.Outputs[7]
	mkIn := func(a, b uint8) []uint8 {
		in := make([]uint8, 17)
		for i := 0; i < 8; i++ {
			in[i] = a >> uint(i) & 1
			in[8+i] = b >> uint(i) & 1
		}
		return in
	}
	_, arr := eng.Run(mkIn(0xFF, 0x01))
	long := arr[msb]
	_, arr = eng.Run(mkIn(0x00, 0x00))
	short := arr[msb]
	if long <= short {
		t.Errorf("carry chain: arrival %v (0xFF+1) should exceed %v (0+0)", long, short)
	}
	if long < 14 {
		t.Errorf("full-length carry chain arrival = %v, implausibly early", long)
	}
}

func TestEngineRejectsBadInputs(t *testing.T) {
	nl := netlist.BuildFullAdderNetlist()
	eng := NewEngine(Compile(nl), unitDelays(nl))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong input width")
		}
	}()
	eng.Run([]uint8{1})
}

func TestNewEngineRejectsBadTable(t *testing.T) {
	nl := netlist.BuildFullAdderNetlist()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong table size")
		}
	}()
	NewEngine(Compile(nl), delay.Table{Ps: []float64{1}})
}

func TestEventSimSettlesToFunctionalValues(t *testing.T) {
	nl := netlist.BuildRCANetlist(8)
	tab := randomTable(nl, rng.New(3))
	es := NewEventSim(nl, tab)
	src := rng.New(4)
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < 100; trial++ {
		src.Bits(in)
		es.Settle(make([]uint8, len(nl.Inputs)))
		es.Apply(in)
		es.Run()
		want := nl.Evaluate(in)
		for g := range want {
			if es.Value(g) != want[g] {
				t.Fatalf("trial %d: net %d = %d, want %d", trial, g, es.Value(g), want[g])
			}
		}
	}
}

func TestEventSimLastChangeNeverExceedsLevelizedArrival(t *testing.T) {
	// Floating-mode arrival is an upper bound on the actual settling time
	// when switching from the all-zero state: after the levelized arrival
	// the net can no longer change.
	nl := netlist.BuildRCANetlist(8)
	tab := randomTable(nl, rng.New(5))
	eng := NewEngine(Compile(nl), tab)
	es := NewEventSim(nl, tab)
	src := rng.New(6)
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < 100; trial++ {
		src.Bits(in)
		_, arr := eng.Run(in)
		es.Settle(make([]uint8, len(nl.Inputs)))
		es.Apply(in)
		es.Run()
		for _, g := range nl.Outputs {
			if es.LastChange(g) > arr[g]+1e-9 {
				t.Fatalf("trial %d: net %d transitioned at %v after floating-mode arrival %v",
					trial, g, es.LastChange(g), arr[g])
			}
		}
	}
}

func TestEventSimInertialPulseSwallowing(t *testing.T) {
	// A pulse shorter than the gate delay must not appear at the output.
	b := netlist.NewBuilder()
	a := b.Input("a")
	y := b.Gate(netlist.Buf, a)
	b.Output("y", y)
	nl := b.MustBuild()
	tab := delay.Table{Ps: []float64{0, 10}}
	es := NewEventSim(nl, tab)
	es.Apply([]uint8{1}) // schedule rise at t=10
	es.RunUntil(5)
	es.Apply([]uint8{0}) // cancel before it lands
	es.Run()
	if es.Value(y) != 0 {
		t.Error("sub-delay pulse propagated through buffer")
	}
	if es.LastChange(y) != 0 {
		t.Errorf("swallowed pulse still recorded a transition at %v", es.LastChange(y))
	}
}

func TestEventSimRunUntilLatchesPartialState(t *testing.T) {
	// Three-inverter chain with unit delays: after Apply(1) at t=0 the
	// output settles at t=3. Reading at t=2.5 must return the stale value —
	// the mechanism behind the overclocking attack.
	b := netlist.NewBuilder()
	a := b.Input("a")
	n1 := b.Gate(netlist.Not, a)
	n2 := b.Gate(netlist.Not, n1)
	n3 := b.Gate(netlist.Not, n2)
	b.Output("y", n3)
	nl := b.MustBuild()
	es := NewEventSim(nl, unitDelays(nl))
	es.Settle([]uint8{0}) // y = NOT NOT NOT 0 = 1
	if es.Value(n3) != 1 {
		t.Fatalf("settled value = %d, want 1", es.Value(n3))
	}
	es.Apply([]uint8{1})
	es.RunUntil(2.5)
	if es.Value(n3) != 1 {
		t.Error("value flipped before its propagation delay elapsed")
	}
	if !es.Pending() {
		t.Error("expected a pending event beyond the cutoff")
	}
	es.Run()
	if es.Value(n3) != 0 {
		t.Error("final settled value wrong")
	}
	if math.Abs(es.LastChange(n3)-3) > 1e-9 {
		t.Errorf("final transition at %v, want 3", es.LastChange(n3))
	}
}

func TestEventSimTransitionsCount(t *testing.T) {
	nl := netlist.BuildRCANetlist(4)
	es := NewEventSim(nl, unitDelays(nl))
	if es.Transitions() != 0 {
		t.Error("fresh sim has transitions")
	}
	in := make([]uint8, len(nl.Inputs))
	in[0] = 1
	es.Apply(in)
	es.Run()
	if es.Transitions() == 0 {
		t.Error("no transitions counted after input change")
	}
}

func TestEventSimGlitchOnRippleCarry(t *testing.T) {
	// Switching from 0b1111+0b0000 to 0b1111+0b0001 launches a carry wave;
	// the MSB sum output should transition strictly later than the LSB.
	nl := netlist.BuildRCANetlist(4)
	es := NewEventSim(nl, unitDelays(nl))
	base := make([]uint8, 9)
	for i := 0; i < 4; i++ {
		base[i] = 1
	}
	es.Settle(base)
	next := make([]uint8, 9)
	copy(next, base)
	next[4] = 1 // b = 0b0001
	es.Apply(next)
	es.Run()
	lsb := nl.Outputs[0]
	msb := nl.Outputs[3]
	if es.LastChange(msb) <= es.LastChange(lsb) {
		t.Errorf("carry wave: MSB changed at %v, LSB at %v", es.LastChange(msb), es.LastChange(lsb))
	}
}

func TestEnginesAgreeOnSettledValuesProperty(t *testing.T) {
	nl := netlist.BuildRCANetlist(6)
	tab := randomTable(nl, rng.New(7))
	eng := NewEngine(Compile(nl), tab)
	es := NewEventSim(nl, tab)
	f := func(a, b uint8, cin bool) bool {
		in := make([]uint8, 13)
		for i := 0; i < 6; i++ {
			in[i] = a >> uint(i) & 1
			in[6+i] = b >> uint(i) & 1
		}
		if cin {
			in[12] = 1
		}
		vals, _ := eng.Run(in)
		es.Settle(make([]uint8, 13))
		es.Apply(in)
		es.Run()
		for _, g := range nl.Outputs {
			if es.Value(g) != vals[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetDelays(t *testing.T) {
	nl := netlist.BuildFullAdderNetlist()
	eng := NewEngine(Compile(nl), unitDelays(nl))
	_, arr1 := eng.Run([]uint8{1, 1, 1})
	sumArr1 := arr1[nl.Outputs[0]]
	double := unitDelays(nl)
	for i := range double.Ps {
		double.Ps[i] *= 2
	}
	eng.SetDelays(double)
	_, arr2 := eng.Run([]uint8{1, 1, 1})
	if math.Abs(arr2[nl.Outputs[0]]-2*sumArr1) > 1e-9 {
		t.Errorf("doubling delays: arrival %v, want %v", arr2[nl.Outputs[0]], 2*sumArr1)
	}
}

func TestPropDelayScalingScalesArrivals(t *testing.T) {
	// Timing is linear in the delay table: scaling every gate delay by k
	// scales every arrival by k and changes no value.
	nl := netlist.BuildRCANetlist(8)
	tab := randomTable(nl, rng.New(40))
	scaled := delay.Table{Ps: make([]float64, len(tab.Ps))}
	const k = 3.5
	for i, d := range tab.Ps {
		scaled.Ps[i] = k * d
	}
	base := NewEngine(Compile(nl), tab)
	scl := NewEngine(Compile(nl), scaled)
	src := rng.New(41)
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < 100; trial++ {
		src.Bits(in)
		v1, a1 := base.Run(in)
		// Copy before the second engine run reuses buffers.
		vals := append([]uint8(nil), v1...)
		arr := append([]float64(nil), a1...)
		v2, a2 := scl.Run(in)
		for g := range vals {
			if vals[g] != v2[g] {
				t.Fatalf("trial %d: value changed under scaling at net %d", trial, g)
			}
			if diff := arr[g]*k - a2[g]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("trial %d: arrival not scaled at net %d: %v vs %v", trial, g, arr[g]*k, a2[g])
			}
		}
	}
}

func TestPropMonotoneDelaysMonotoneArrivals(t *testing.T) {
	// Increasing any single gate's delay can never make any arrival
	// earlier (floating-mode arrival is monotone in the delay table).
	nl := netlist.BuildRCANetlist(6)
	tab := randomTable(nl, rng.New(42))
	src := rng.New(43)
	in := make([]uint8, len(nl.Inputs))
	src.Bits(in)
	base := NewEngine(Compile(nl), tab)
	_, a1 := base.Run(in)
	ref := append([]float64(nil), a1...)
	for trial := 0; trial < 30; trial++ {
		g := src.Intn(len(tab.Ps))
		if tab.Ps[g] == 0 {
			continue
		}
		bumped := tab.Clone()
		bumped.Ps[g] += 5
		eng := NewEngine(Compile(nl), bumped)
		_, a2 := eng.Run(in)
		for n := range ref {
			if a2[n] < ref[n]-1e-9 {
				t.Fatalf("bumping gate %d made net %d earlier: %v -> %v", g, n, ref[n], a2[n])
			}
		}
	}
}
