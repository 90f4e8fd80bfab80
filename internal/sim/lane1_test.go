package sim

import (
	"math"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

// assertLane1MatchesGeneric runs the same challenges through an engine and
// the generic walker over the same delay table and compares every net's value
// and arrival bit-for-bit.
func assertLane1MatchesGeneric(t *testing.T, eng *Engine, oracle *Engine, challenges [][]uint8) {
	t.Helper()
	nl := eng.Netlist()
	for k, ch := range challenges {
		gotV, gotA := eng.Run(ch)
		wantV, wantA := oracle.Run(ch)
		for g := range nl.Gates {
			if gotV[g] != wantV[g] {
				t.Fatalf("challenge %d net %d (%v): value %d, want %d", k, g, nl.Gates[g].Kind, gotV[g], wantV[g])
			}
			if math.Float64bits(gotA[g]) != math.Float64bits(wantA[g]) {
				t.Fatalf("challenge %d net %d (%v): arrival %v, want %v", k, g, nl.Gates[g].Kind, gotA[g], wantA[g])
			}
		}
	}
}

// vthOverlay adds a fresh Gaussian per-gate threshold shift (mean mu, sigma
// sd) to base, skipping inputs and constants — the shape of the device
// model's aging drift (positive mean) and epoch reconfiguration (zero mean,
// full process sigma).
func vthOverlay(nl *netlist.Netlist, base []float64, src *rng.Source, mu, sd float64) []float64 {
	out := append([]float64(nil), base...)
	for g := range nl.Gates {
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		out[g] += src.NormMS(mu, sd)
	}
	return out
}

// TestFusedLane1MatchesGenericPUFDatapath is the single-lane equivalence
// contract on the PUF datapath: the fused paired ripple-carry kernel agrees
// with the generic walker on every net's value and Float64bits arrival, at
// three operating corners, for a fresh, an aged and an epoch-shifted delay
// realisation.
func TestFusedLane1MatchesGenericPUFDatapath(t *testing.T) {
	for _, useCarry := range []bool{true, false} {
		nl := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: useCarry}).Net
		prog := Compile(nl)
		if !prog.Fused() || !prog.rca.paired {
			t.Fatalf("carry=%v: RCA PUF datapath did not compile to the paired fused program", useCarry)
		}
		params := delay.Default45nm()
		model := delay.NewModel(params)
		src := rng.New(81)
		fresh := vthOverlay(nl, make([]float64, len(nl.Gates)), src, 0, params.SigmaVth())
		states := []struct {
			name string
			vth  []float64
		}{
			{"fresh", fresh},
			{"aged", vthOverlay(nl, fresh, src, 0.03, 0.006)},
			{"epoch", vthOverlay(nl, fresh, src, 0, params.SigmaVth())},
		}
		corners := []delay.Conditions{
			delay.Nominal(),
			{VddScale: 0.90, TempC: 120},
			{VddScale: 1.10, TempC: -20},
		}
		for _, st := range states {
			for _, cond := range corners {
				tab := delay.BuildTable(model, nl, st.vth, nil, cond)
				assertLane1MatchesGeneric(t, NewEngine(prog, tab), NewEngine(prog.Generic(), tab),
					randomChallenges(src, 200, len(nl.Inputs)))
			}
		}
	}
}

// TestFusedLane1MatchesGenericAfterSetDelaysAndClone pins that rebinding a
// delay table reaches the fused kernel, and that clones keep their binding.
func TestFusedLane1MatchesGenericAfterSetDelaysAndClone(t *testing.T) {
	nl := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16}).Net
	prog := Compile(nl)
	tabA := randomTable(nl, rng.New(82))
	tabB := randomTable(nl, rng.New(83))
	eng := NewEngine(prog, tabA)
	clone := eng.Clone()
	eng.SetDelays(tabB)
	src := rng.New(84)
	assertLane1MatchesGeneric(t, eng, newOracle(nl, tabB), randomChallenges(src, 50, len(nl.Inputs)))
	assertLane1MatchesGeneric(t, clone, newOracle(nl, tabA), randomChallenges(src, 50, len(nl.Inputs)))
}

// TestFusedLane1MatchesGenericStandaloneChains covers the unpaired fused
// kernel (single chains) against the walker.
func TestFusedLane1MatchesGenericStandaloneChains(t *testing.T) {
	for _, nl := range []*netlist.Netlist{netlist.BuildRCANetlist(8), netlist.BuildFullAdderNetlist()} {
		prog := Compile(nl)
		if !prog.Fused() || prog.rca.paired {
			t.Fatalf("%d-gate chain: want the unpaired fused program", len(nl.Gates))
		}
		tab := randomTable(nl, rng.New(85))
		assertLane1MatchesGeneric(t, NewEngine(prog, tab), newOracle(nl, tab),
			randomChallenges(rng.New(86), 100, len(nl.Inputs)))
	}
}

// TestNonChainNetlistsFallBackToGenericWalk shows that netlists outside the
// ripple-carry shape — the carry-lookahead datapath and random DAGs — compile
// without the fused program, so their engines run the generic walk.
func TestNonChainNetlistsFallBackToGenericWalk(t *testing.T) {
	nls := []*netlist.Netlist{
		netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16, Adder: netlist.AdderCLA}).Net,
		netlist.BuildCLANetlist(8),
		netlist.BuildALUNetlist(4),
	}
	src := rng.New(87)
	for i := 0; i < 5; i++ {
		nls = append(nls, randomNetlist(src, 60))
	}
	for i, nl := range nls {
		prog := Compile(nl)
		if prog.Fused() {
			t.Fatalf("netlist %d unexpectedly matched the ripple-carry program", i)
		}
		tab := randomTable(nl, src)
		assertLane1MatchesGeneric(t, NewEngine(prog, tab), newOracle(nl, tab),
			randomChallenges(src, 50, len(nl.Inputs)))
	}
}

func BenchmarkEngineRunRCA(b *testing.B) {
	nl := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true}).Net
	for _, tc := range []struct {
		name string
		prog *Program
	}{{"fused", Compile(nl)}, {"generic", Compile(nl).Generic()}} {
		b.Run(tc.name, func(b *testing.B) {
			eng := NewEngine(tc.prog, randomTable(nl, rng.New(88)))
			in := randomChallenges(rng.New(89), 1, len(nl.Inputs))[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(in)
			}
		})
	}
}
