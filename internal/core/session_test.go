package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/rng"
	"pufatt/internal/sim"
)

// sessionScenarios are device states the single-query session path must
// handle: corners, reconfiguration epochs, aging and board skew.
func sessionScenarios() []struct {
	name string
	prep func(*Device)
} {
	return []struct {
		name string
		prep func(*Device)
	}{
		{"nominal", func(*Device) {}},
		{"slow-corner", func(dev *Device) { dev.SetConditions(delay.Conditions{VddScale: 0.90, TempC: 120}) }},
		{"fast-corner", func(dev *Device) { dev.SetConditions(delay.Conditions{VddScale: 1.10, TempC: -20}) }},
		{"epoch-2", func(dev *Device) { dev.SetEpoch(2) }},
		{"aged", func(dev *Device) { dev.Age(4000, 0.5) }},
		{"extra-skew", func(dev *Device) {
			skew := make([]float64, dev.Design().ResponseBits())
			for i := range skew {
				skew[i] = float64(i%7) - 3
			}
			dev.SetExtraSkewPs(skew)
		}},
	}
}

// TestDeviceEngineMatchesGenericWalk compares the device's own single-lane
// engine (the fused kernel) with the generic walker over the device's
// current delay table, for every net's value and Float64bits arrival.
func TestDeviceEngineMatchesGenericWalk(t *testing.T) {
	for _, sc := range sessionScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dev := MustNewDevice(MustNewDesign(DefaultConfig()), rng.New(401), 3)
			sc.prep(dev)
			if !dev.design.prog.Fused() {
				t.Fatal("default design did not compile to the fused program")
			}
			oracle := sim.NewEngine(dev.design.prog.Generic(), dev.tables[dev.cond])
			for _, ch := range batchChallenges(dev.design, 100, 402) {
				gotV, gotA := dev.engine.Run(ch)
				wantV, wantA := oracle.Run(ch)
				for g := range wantV {
					if gotV[g] != wantV[g] || math.Float64bits(gotA[g]) != math.Float64bits(wantA[g]) {
						t.Fatalf("net %d: (%d, %v), want (%d, %v)", g, gotV[g], gotA[g], wantV[g], wantA[g])
					}
				}
			}
		})
	}
}

// TestCriticalPathCacheFollowsTableChanges checks that the cached critical
// path equals a fresh topological walk of the current delay table after
// every kind of table change: corner, aging and epoch.
func TestCriticalPathCacheFollowsTableChanges(t *testing.T) {
	dev := MustNewDevice(MustNewDesign(testConfig()), rng.New(403), 0)
	nl := dev.design.datapath.Net
	seen := map[float64]bool{}
	check := func(step string) {
		t.Helper()
		got := dev.CriticalPathPs()
		want := criticalPathPs(nl, dev.tables[dev.cond])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cached critical path %v, fresh walk %v", step, got, want)
		}
		if dev.CriticalPathPs() != got {
			t.Fatalf("%s: repeated read changed the cached value", step)
		}
		seen[got] = true
	}
	check("new device")
	dev.SetConditions(delay.Conditions{VddScale: 0.90, TempC: 120})
	check("slow corner")
	dev.SetConditions(delay.Nominal())
	check("back to nominal")
	dev.Age(5000, 0.8)
	check("aged")
	dev.ReinforcementAge(2000, 64)
	check("reinforcement aged")
	dev.SetEpoch(3)
	check("epoch 3")
	dev.SetEpoch(0)
	check("epoch 0")
	if len(seen) < 5 {
		t.Fatalf("only %d distinct critical paths over the table changes; the cache was not exercised", len(seen))
	}
}

// refClocked is an independent per-bit reference for one ClockedResponse:
// the generic walker's arrivals, then per bit in ascending order either a
// jitter draw (latched in time) or a metastable bit (late).
func refClocked(dev *Device, oracle *sim.Engine, ch []uint8, tCyclePs, tSetupPs float64) ([]uint8, int) {
	_, arr := oracle.Run(ch)
	jitter := dev.design.cfg.JitterPs * dev.jitterScale
	deadline := tCyclePs - tSetupPs
	out := make([]uint8, dev.design.ResponseBits())
	valid := 0
	for i := range out {
		a0, a1 := dev.design.datapath.Pair(i)
		t0 := arr[a0]
		t1 := arr[a1] + dev.design.skewPs[i]
		if dev.extraSkewPs != nil {
			t1 += dev.extraSkewPs[i]
		}
		if t0 <= deadline && t1 <= deadline {
			d := t1 - t0
			if jitter > 0 {
				d += dev.noise.NormMS(0, jitter)
			}
			if d > 0 {
				out[i] = 1
			}
			valid++
		} else {
			out[i] = dev.noise.Bit()
		}
	}
	dev.queries++
	return out, valid
}

// TestClockedMajorityMatchesPerVoteReference pins the one-pass clocked
// majority to votes independent per-vote measurements on a twin device, over
// a clock sweep that covers late (metastable) bits, for every vote count.
func TestClockedMajorityMatchesPerVoteReference(t *testing.T) {
	for _, sc := range sessionScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			mk := func() *Device {
				dev := MustNewDevice(MustNewDesign(testConfig()), rng.New(404), 1)
				sc.prep(dev)
				return dev
			}
			dev, twin := mk(), mk()
			oracle := sim.NewEngine(twin.design.prog.Generic(), twin.tables[twin.cond])
			src := rng.New(405)
			ch := make([]uint8, dev.design.ChallengeBits())
			got := make([]uint8, dev.design.ResponseBits())
			bits := dev.design.ResponseBits()
			sawLate := false
			for k := 0; k < 120; k++ {
				src.Bits(ch)
				// Sweep the latch period from well inside to well past the
				// challenge's own settling time.
				settle := dev.MinReliableCyclePs(ch, 20)
				cycle := settle * (0.97 + 0.06*float64(k%7)/6)
				votes := []int{1, 3, 5, 7}[k%4]
				valid := dev.ClockedMajorityResponse(got, ch, votes, cycle, 20)
				counts := make([]int, bits)
				var wantValid int
				for v := 0; v < votes; v++ {
					r, vv := refClocked(twin, oracle, ch, cycle, 20)
					wantValid = vv
					for i, b := range r {
						counts[i] += int(b)
					}
				}
				want := make([]uint8, bits)
				for i, c := range counts {
					if 2*c > votes {
						want[i] = 1
					}
				}
				if !bytes.Equal(got, want) || valid != wantValid {
					t.Fatalf("challenge %d (votes %d, cycle %v): %v valid %d, want %v valid %d",
						k, votes, cycle, got, valid, want, wantValid)
				}
				sawLate = sawLate || valid < bits
				if dev.Queries() != twin.Queries() {
					t.Fatalf("challenge %d: %d queries, want %d", k, dev.Queries(), twin.Queries())
				}
			}
			if !sawLate {
				t.Fatal("sweep never latched a bit late")
			}
		})
	}
}

// TestMajorityResponseMatchesPerVoteReference pins the one-pass majority
// (and the raw and noiseless responses that share its stage) to sequential
// per-vote raw responses from an independent walker on a twin device: same
// bits, same query count, and the noise streams stay aligned.
func TestMajorityResponseMatchesPerVoteReference(t *testing.T) {
	for _, sc := range sessionScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			mk := func() *Device {
				dev := MustNewDevice(MustNewDesign(testConfig()), rng.New(406), 2)
				sc.prep(dev)
				return dev
			}
			dev, twin := mk(), mk()
			oracle := sim.NewEngine(twin.design.prog.Generic(), twin.tables[twin.cond])
			jitter := twin.design.cfg.JitterPs * twin.jitterScale
			bits := dev.design.ResponseBits()
			refRaw := func(ch []uint8, noisy bool) []uint8 {
				_, arr := oracle.Run(ch)
				out := make([]uint8, bits)
				for i := range out {
					d := twin.arrivalDelta(arr, i)
					if noisy && jitter > 0 {
						d += twin.noise.NormMS(0, jitter)
					}
					if d > 0 {
						out[i] = 1
					}
				}
				twin.queries++
				return out
			}
			for k, ch := range batchChallenges(dev.design, 60, 407) {
				votes := []int{1, 3, 5}[k%3]
				got := [][]uint8{dev.MajorityResponse(ch, votes), dev.RawResponseCopy(ch), dev.NoiselessResponse(ch)}
				counts := make([]int, bits)
				for v := 0; v < votes; v++ {
					for i, b := range refRaw(ch, true) {
						counts[i] += int(b)
					}
				}
				maj := make([]uint8, bits)
				for i, c := range counts {
					if 2*c > votes {
						maj[i] = 1
					}
				}
				want := [][]uint8{maj, refRaw(ch, true), refRaw(ch, false)}
				for m, name := range []string{"majority", "raw", "noiseless"} {
					if !bytes.Equal(got[m], want[m]) {
						t.Fatalf("challenge %d %s: %v, want %v", k, name, got[m], want[m])
					}
				}
				if dev.Queries() != twin.Queries() {
					t.Fatalf("challenge %d: %d queries, want %d", k, dev.Queries(), twin.Queries())
				}
			}
			if a, b := dev.noise.Uint64(), twin.noise.Uint64(); a != b {
				t.Fatalf("noise streams diverged: %x vs %x", a, b)
			}
		})
	}
}

// TestBatchNoisyMatchesPerVoteReference pins every batch engine's noisy
// responses, at 1, 3 and 5 votes, to a test-local per-vote reference: item
// k draws from its own SubSeedN("item", k) stream under the batch's noise
// base, and each vote thresholds d + NormMS(0, jitter) per bit in ascending
// order. The gate and bitslice deltas come from the generic walker, the
// linear ones from the device's fitted model, so a fault in the shared
// latch stage cannot hide behind the engines agreeing with each other.
func TestBatchNoisyMatchesPerVoteReference(t *testing.T) {
	for _, sc := range engineScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dev := MustNewDevice(MustNewDesign(sc.cfg()), rng.New(408), 0)
			if sc.prep != nil {
				sc.prep(dev)
			}
			oracle := sim.NewEngine(dev.design.prog.Generic(), dev.tables[dev.cond])
			jitter := dev.design.cfg.JitterPs * dev.jitterScale
			bits := dev.design.ResponseBits()
			ch := batchChallenges(dev.design, 130, 409)
			deltas := make([]float64, bits)
			for _, engine := range []EvalEngine{EngineGate, EngineBitslice, EngineLinear} {
				dev.SetEvalEngine(engine)
				for _, votes := range []int{1, 3, 5} {
					base := dev.noise.Sub(fmt.Sprintf("batch/%d", dev.batchEpochs))
					queries := dev.Queries()
					var got [][]uint8
					if votes == 1 {
						got = dev.RawResponses(ch, 4)
					} else {
						got = dev.MajorityResponses(ch, votes, 4)
					}
					for k, c := range ch {
						if engine == EngineLinear {
							dev.linearModel().DeltasInto(c, deltas)
						} else {
							_, arr := oracle.Run(c)
							for i := range deltas {
								deltas[i] = dev.arrivalDelta(arr, i)
							}
						}
						noise := base.SubN("item", k)
						counts := make([]int, bits)
						for v := 0; v < votes; v++ {
							for i, d := range deltas {
								if d+noise.NormMS(0, jitter) > 0 {
									counts[i]++
								}
							}
						}
						for i, n := range counts {
							if want := bit(2*n > votes); got[k][i] != want {
								t.Fatalf("%s votes %d row %d bit %d: %d, reference %d of %d votes", engine, votes, k, i, got[k][i], n, votes)
							}
						}
					}
					if want := queries + uint64(votes*len(ch)); dev.Queries() != want {
						t.Fatalf("%s votes %d: %d queries, want %d", engine, votes, dev.Queries(), want)
					}
				}
			}
		})
	}
}
