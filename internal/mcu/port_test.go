package mcu

import (
	"fmt"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
	"pufatt/internal/rng"
)

// refPort is a test-local reference for DevicePort: the per-vote loop of
// votes sequential ClockedResponse calls per query, majority, syndrome and
// obfuscation — the port's behaviour spelled out without the one-pass
// clocked majority.
type refPort struct {
	dev     *core.Device
	sketch  *ecc.Sketch
	net     *obfuscate.Network
	meta    *rng.Source
	votes   int
	setupPs float64
}

func newRefPort(dev *core.Device) *refPort {
	bits := dev.Design().ResponseBits()
	code, err := ecc.ForResponseWidth(bits)
	if err != nil {
		panic(err)
	}
	return &refPort{
		dev:     dev,
		sketch:  ecc.NewSketch(code),
		net:     obfuscate.MustNew(bits),
		meta:    rng.New(0x19e7a57ab1e ^ uint64(dev.ChipID())),
		votes:   5,
		setupPs: 20,
	}
}

// query runs one PUF() invocation over eight operand pairs at the given
// clock period and returns z and the helper words.
func (r *refPort) query(cyclePs float64, ops [][2]uint32) (uint32, []uint64) {
	bits := r.dev.Design().ResponseBits()
	responses := make([][]uint8, 0, len(ops))
	var helpers []uint64
	for _, op := range ops {
		y := make([]uint8, bits)
		if cyclePs < r.dev.CriticalPathPs()+r.setupPs {
			r.meta.Bits(y)
		} else {
			ch := r.dev.Design().ChallengeFromOperands(uint64(op[0]), uint64(op[1]))
			counts := make([]int, bits)
			for v := 0; v < r.votes; v++ {
				resp, _ := r.dev.ClockedResponse(ch, cyclePs, r.setupPs)
				for i, bit := range resp {
					counts[i] += int(bit)
				}
			}
			for i, c := range counts {
				if 2*c > r.votes {
					y[i] = 1
				}
			}
		}
		h, err := r.sketch.Generate(y)
		if err != nil {
			panic(err)
		}
		helpers = append(helpers, h)
		responses = append(responses, y)
	}
	z := r.net.MustApply(responses)
	return uint32(ecc.BitsToWord(z)), helpers
}

// sweepDevice builds a device with a late extra skew (board routing in the
// FPGA model) on every fourth bit. The monitor's critical path ends at the
// unraced carry-out, a few tens of ps after the last sum, so only a skewed
// race can finish after the latch deadline at a clock that keeps the
// monitor quiet; the other bits keep their unbiased races.
func sweepDevice(design *core.Design, chip int) *core.Device {
	dev := core.MustNewDevice(design, rng.New(41), chip)
	skew := make([]float64, design.ResponseBits())
	for i := 3; i < len(skew); i += 4 {
		skew[i] = 90
	}
	dev.SetExtraSkewPs(skew)
	return dev
}

// sweepOperands returns the eight operand pairs of one PUF() query: random
// pairs interleaved with pairs whose carry ripples through (nearly) the
// whole adder.
func sweepOperands(src *rng.Source) [][2]uint32 {
	ops := make([][2]uint32, obfuscate.ResponsesPerOutput)
	for j := range ops {
		if j%2 == 0 {
			ops[j] = [2]uint32{src.Uint32(), src.Uint32()}
		} else {
			ops[j] = [2]uint32{^uint32(0) >> (src.Uint32() % 3), 1 + src.Uint32()%2}
		}
	}
	return ops
}

// sweepScales are clock periods as multiples of critical path + setup: the
// timing monitor fires below 1x; from 1x to ~1.003x long carry chains latch
// late and resolve through the device's metastable draws; above that every
// bit latches in time.
var sweepScales = []float64{0.85, 0.95, 0.999, 1.0, 1.0005, 1.001, 1.003, 1.01, 1.05, 1.15}

// TestDevicePortMatchesPerVoteReference pins the port's one-pass voted query
// to the per-vote reference on twin devices: identical z words, helper FIFO
// and device query counts across a clock sweep from 0.85x to 1.15x of
// critical path + setup.
func TestDevicePortMatchesPerVoteReference(t *testing.T) {
	design := core.MustNewDesign(core.DefaultConfig())
	for chip := 0; chip < 2; chip++ {
		dev, twin := sweepDevice(design, chip), sweepDevice(design, chip)
		port := MustNewDevicePort(dev)
		ref := newRefPort(twin)
		period := dev.CriticalPathPs() + port.SetupPs
		src := rng.New(uint64(42 + chip))
		for _, scale := range sweepScales {
			t.Run(fmt.Sprintf("chip%d/x%g", chip, scale), func(t *testing.T) {
				port.CyclePs = scale * period
				for q := 0; q < 4; q++ {
					ops := sweepOperands(src)
					port.Begin()
					for _, op := range ops {
						cycles, err := port.Feed(op[0], op[1])
						if err != nil {
							t.Fatal(err)
						}
						if cycles != uint64(port.Votes)+1 {
							t.Fatalf("feed cost %d cycles, want %d", cycles, port.Votes+1)
						}
					}
					z, err := port.Finish()
					if err != nil {
						t.Fatal(err)
					}
					wantZ, wantH := ref.query(port.CyclePs, ops)
					gotH := port.DrainHelpers()
					if z != wantZ {
						t.Fatalf("query %d: z %#x, want %#x", q, z, wantZ)
					}
					if fmt.Sprint(gotH) != fmt.Sprint(wantH) {
						t.Fatalf("query %d: helpers %x, want %x", q, gotH, wantH)
					}
					if dev.Queries() != twin.Queries() {
						t.Fatalf("query %d: %d device queries, want %d", q, dev.Queries(), twin.Queries())
					}
				}
			})
		}
	}
}

// TestPortSweepReachesLateBits checks that the sweep above exercises the
// per-bit metastable path: at 1x-1.001x the monitor stays quiet while the
// long-carry operand pairs leave some bits unlatched.
func TestPortSweepReachesLateBits(t *testing.T) {
	design := core.MustNewDesign(core.DefaultConfig())
	dev := sweepDevice(design, 0)
	period := dev.CriticalPathPs() + 20
	for _, scale := range []float64{1.0, 1.0005, 1.001} {
		late := false
		src := rng.New(43)
		for k := 0; k < 8 && !late; k++ {
			for _, op := range sweepOperands(src) {
				ch := design.ChallengeFromOperands(uint64(op[0]), uint64(op[1]))
				if _, valid := dev.ClockedResponse(ch, scale*period, 20); valid < design.ResponseBits() {
					late = true
				}
			}
		}
		if !late {
			t.Fatalf("x%g: no bit latched late; the sweep misses the metastable path", scale)
		}
	}
}
