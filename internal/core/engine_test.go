package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

func TestParseEvalEngine(t *testing.T) {
	cases := []struct {
		in   string
		want EvalEngine
	}{
		{"gate", EngineGate},
		{"bitslice", EngineBitslice},
		{"linear", EngineLinear},
	}
	for _, c := range cases {
		got, err := ParseEvalEngine(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseEvalEngine(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if got.String() != c.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseEvalEngine("simd"); err == nil {
		t.Error("ParseEvalEngine accepted an unknown engine name")
	}
}

func TestEvalEngineSelection(t *testing.T) {
	prev := DefaultEvalEngine()
	defer SetDefaultEvalEngine(prev)

	dev := twinDevice(t, 301)
	if got := dev.EvalEngine(); got != prev {
		t.Fatalf("fresh device engine %v, want package default %v", got, prev)
	}
	SetDefaultEvalEngine(EngineGate)
	if got := dev.EvalEngine(); got != EngineGate {
		t.Fatalf("device did not follow package default: %v", got)
	}
	dev.SetEvalEngine(EngineLinear)
	if got := dev.EvalEngine(); got != EngineLinear {
		t.Fatalf("per-device override lost: %v", got)
	}
	dev.SetEvalEngine(EngineDefault)
	if got := dev.EvalEngine(); got != EngineGate {
		t.Fatalf("EngineDefault did not resolve to package default: %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("SetDefaultEvalEngine(EngineDefault) did not panic")
		}
	}()
	SetDefaultEvalEngine(EngineDefault)
}

// engineScenario prepares one device state the bitsliced engine must
// reproduce exactly: architecture variants and every physics mutation that
// reaches the delay tables or the arbiter deltas.
type engineScenario struct {
	name string
	cfg  func() Config
	prep func(dev *Device)
}

func engineScenarios() []engineScenario {
	return []engineScenario{
		{"rca-fused", testConfig, nil},
		{"rca-no-carry", func() Config {
			cfg := testConfig()
			cfg.UseCarry = false
			return cfg
		}, nil},
		{"cla-generic", func() Config {
			cfg := testConfig()
			cfg.Adder = netlist.AdderCLA
			return cfg
		}, nil},
		{"corner-and-skew", testConfig, func(dev *Device) {
			dev.SetConditions(delay.Conditions{VddScale: 0.90, TempC: 120})
			skew := make([]float64, dev.Design().ResponseBits())
			for i := range skew {
				skew[i] = float64(i%5) - 2
			}
			dev.SetExtraSkewPs(skew)
		}},
		{"epoch-3", testConfig, func(dev *Device) { dev.SetEpoch(3) }},
		{"aged", testConfig, func(dev *Device) { dev.Age(5000, 0.5) }},
	}
}

// TestBitsliceMatchesGateAllModes is the cross-engine equivalence contract:
// for every device state and worker count, the bitsliced engine's and the
// single-lane gate engine's raw, noiseless and majority-voted response
// matrices are byte-identical to an independent oracle — the gate engine
// over the design's generic program, i.e. the per-gate walker, never the
// fused kernels under test. Twin devices share seed and chip ID, and all
// run the modes in the same order, so their batch noise epochs stay aligned.
func TestBitsliceMatchesGateAllModes(t *testing.T) {
	workerCounts := []int{1, 4, 16}
	for _, sc := range engineScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range workerCounts {
				mk := func(engine EvalEngine, generic bool) *Device {
					d := MustNewDesign(sc.cfg())
					if generic {
						d.prog = d.prog.Generic()
					}
					dev := MustNewDevice(d, rng.New(303), 0)
					if sc.prep != nil {
						sc.prep(dev)
					}
					dev.SetEvalEngine(engine)
					return dev
				}
				oracle := mk(EngineGate, true)
				// 130 challenges: two full 64-lane blocks plus a short tail
				// block, so tail-lane masking is always exercised.
				ch := batchChallenges(oracle.Design(), 130, 304)
				run := func(dev *Device) [][][]uint8 {
					return [][][]uint8{
						dev.RawResponses(ch, workers),
						dev.NoiselessResponses(ch, workers),
						dev.MajorityResponses(ch, 5, workers),
					}
				}
				want := run(oracle)
				for _, engine := range []EvalEngine{EngineGate, EngineBitslice} {
					got := run(mk(engine, false))
					modes := []string{"raw", "noiseless", "majority5"}
					for m := range want {
						for k := range want[m] {
							if !bytes.Equal(want[m][k], got[m][k]) {
								t.Fatalf("%s %s workers=%d row %d: %v, generic walker %v",
									engine, modes[m], workers, k, got[m][k], want[m][k])
							}
						}
					}
				}
			}
		})
	}
}

// TestBitsliceDeterministicAcrossWorkers pins the worker-count determinism
// contract on the bitsliced path specifically: identical output matrices at
// 1, 4 and 16 workers (16 > blocks forces the worker clamp).
func TestBitsliceDeterministicAcrossWorkers(t *testing.T) {
	var ref [][]uint8
	for i, workers := range []int{1, 4, 16} {
		dev := twinDevice(t, 305)
		dev.SetEvalEngine(EngineBitslice)
		ch := batchChallenges(dev.Design(), 200, 306)
		got := dev.RawResponses(ch, workers)
		if i == 0 {
			ref = got
			continue
		}
		for k := range ref {
			if !bytes.Equal(ref[k], got[k]) {
				t.Fatalf("workers=%d row %d differs: %v vs %v", workers, k, got[k], ref[k])
			}
		}
	}
}

// dumpMismatchCorpus writes one JSONL record per disagreeing (challenge, bit)
// to an artifact file and returns its path. PUFATT_ARTIFACTS overrides the
// directory (default: the test's temp dir, kept only for the run).
func dumpMismatchCorpus(t *testing.T, name string, records []map[string]any) string {
	t.Helper()
	dir := os.Getenv("PUFATT_ARTIFACTS")
	if dir == "" {
		dir = t.TempDir()
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("mismatch corpus: %v", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			t.Fatalf("mismatch corpus: %v", err)
		}
	}
	return path
}

// TestLinearModelAgreement fits the linear-delay fast model and gates its
// holdout sign-agreement with the gate-level engine. On failure it dumps the
// full mismatch corpus (challenge, bit, both deltas) for offline triage.
func TestLinearModelAgreement(t *testing.T) {
	const minAgreement = 0.90
	dev := twinDevice(t, 307)
	model, err := FitLinearModel(dev, DefaultLinearModelConfig())
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if a := model.Agreement(); a < minAgreement {
		t.Errorf("holdout agreement %.4f below tolerance %.2f", a, minAgreement)
	}
	per := model.PerBitAgreement()
	if len(per) != dev.Design().ResponseBits() {
		t.Fatalf("per-bit agreement has %d entries, want %d", len(per), dev.Design().ResponseBits())
	}

	// Engine-level agreement on fresh challenges: noiseless responses through
	// EngineLinear vs EngineGate.
	gate := twinDevice(t, 307)
	linear := twinDevice(t, 307)
	gate.SetEvalEngine(EngineGate)
	linear.SetEvalEngine(EngineLinear)
	const n = 2000
	ch := batchChallenges(gate.Design(), n, 308)
	want := gate.NoiselessResponses(ch, 2)
	got := linear.NoiselessResponses(ch, 2)
	bits := gate.Design().ResponseBits()
	agree := 0
	var mismatches []map[string]any
	for k := range ch {
		for i := 0; i < bits; i++ {
			if want[k][i] == got[k][i] {
				agree++
			} else {
				mismatches = append(mismatches, map[string]any{
					"challenge": fmt.Sprintf("%x", ch[k]),
					"bit":       i,
					"gate":      want[k][i],
					"linear":    got[k][i],
				})
			}
		}
	}
	frac := float64(agree) / float64(n*bits)
	if frac < minAgreement {
		path := dumpMismatchCorpus(t, "linear-mismatch.jsonl", mismatches)
		t.Errorf("engine-level agreement %.4f below tolerance %.2f; %d mismatches dumped to %s",
			frac, minAgreement, len(mismatches), path)
	}
}

// TestLinearModelRefitsOnPhysicsChange: aging, reconfiguration epochs, corner
// moves and skew injection all invalidate a fitted model; the engine must
// refit rather than serve stale weights. Detection: after each mutation the
// linear engine must still track the (re-measured) gate-level engine at the
// fit-time agreement level — a stale fit would collapse toward coin-flipping.
func TestLinearModelRefitsOnPhysicsChange(t *testing.T) {
	mutations := []struct {
		name string
		prep func(dev *Device)
	}{
		{"age", func(dev *Device) { dev.Age(8000, 1.0) }},
		{"epoch", func(dev *Device) { dev.SetEpoch(2) }},
		{"corner", func(dev *Device) { dev.SetConditions(delay.Conditions{VddScale: 0.85, TempC: 125}) }},
		{"skew", func(dev *Device) {
			skew := make([]float64, dev.Design().ResponseBits())
			for i := range skew {
				skew[i] = 40 * float64(1-2*(i&1))
			}
			dev.SetExtraSkewPs(skew)
		}},
	}
	for _, mu := range mutations {
		t.Run(mu.name, func(t *testing.T) {
			gate := twinDevice(t, 309)
			linear := twinDevice(t, 309)
			gate.SetEvalEngine(EngineGate)
			linear.SetEvalEngine(EngineLinear)
			ch := batchChallenges(gate.Design(), 600, 310)
			// Prime a fit at the fresh state, then mutate both twins.
			linear.NoiselessResponses(ch[:1], 1)
			gate.NoiselessResponses(ch[:1], 1)
			mu.prep(gate)
			mu.prep(linear)
			want := gate.NoiselessResponses(ch, 2)
			got := linear.NoiselessResponses(ch, 2)
			bits := gate.Design().ResponseBits()
			agree := 0
			for k := range ch {
				for i := 0; i < bits; i++ {
					if want[k][i] == got[k][i] {
						agree++
					}
				}
			}
			frac := float64(agree) / float64(len(ch)*bits)
			if frac < 0.85 {
				t.Errorf("post-%s agreement %.4f: linear engine served a stale fit", mu.name, frac)
			}
		})
	}
}

// TestLinearEngineDeterministic: the linear path honours the same
// worker-count determinism contract as the gate-level engines.
func TestLinearEngineDeterministic(t *testing.T) {
	var ref [][]uint8
	for i, workers := range []int{1, 4, 16} {
		dev := twinDevice(t, 311)
		dev.SetEvalEngine(EngineLinear)
		ch := batchChallenges(dev.Design(), 150, 312)
		got := dev.RawResponses(ch, workers)
		if i == 0 {
			ref = got
			continue
		}
		for k := range ref {
			if !bytes.Equal(ref[k], got[k]) {
				t.Fatalf("workers=%d row %d differs", workers, k)
			}
		}
	}
}
