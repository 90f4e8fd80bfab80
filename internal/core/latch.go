package core

import "pufatt/internal/rng"

// latch is the arbiter latch stage: it turns one engine pass's per-bit
// arrival deltas into response bits. Every response path ends here — the
// session prover (Device.ClockedMajorityResponse behind mcu.DevicePort),
// Device.RawResponse/MajorityResponse/NoiselessResponse, and the gate,
// bitslice and linear batch workers — which is what makes all of them
// comparable draw for draw.
//
// Bit i's delta is deltas[i*stride+lane]: stride 1 for scalar layouts,
// sim.Lanes for lane-major bitsliced blocks. The engine pass is
// deterministic, so one pass serves every vote; only the latching differs.
// Each of the votes draws, per bit in ascending order, arbiter jitter
// (delta + N(0, jitter) > 0) or, for a bit the late mask marks (nil: none
// is late), a metastable resolution (noise.Bit). That is the order votes
// sequential single measurements draw in, and the stream ends exactly
// where they leave it. jitter ≤ 0 means no jitter draws: a bit then
// latches its delta's sign. out receives the bitwise majority; counts is
// per-bit scratch.
//
// Two things keep the stage cheap without moving a draw:
//   - noise.NormExceeds decides each vote without math.Log on all but a
//     few percent of draws, exactly as the literal NormMS threshold would;
//   - once a bit holds a majority of votes its remaining votes cannot
//     change it, so they only advance the stream (noise.SkipNorm).
func latch(out []uint8, counts []int, deltas []float64, stride, lane int, late []bool, noise *rng.Source, jitter float64, votes int) {
	if jitter <= 0 && late == nil {
		// Nothing is drawn: every vote sees the same delta.
		idx := lane
		for i := range out {
			out[i] = bit(deltas[idx] > 0)
			idx += stride
		}
		return
	}
	for i := range counts {
		counts[i] = 0
	}
	half := votes / 2
	for v := 0; v < votes; v++ {
		idx := lane
		for i, c := range counts {
			d := deltas[idx]
			idx += stride
			switch {
			case late != nil && late[i]:
				counts[i] = c + int(noise.Bit())
			case jitter <= 0:
				if d > 0 {
					counts[i] = c + 1
				}
			case c > half || v-c > half:
				// Settled: c ones or v−c zeros already outvote the rest.
				noise.SkipNorm()
			case noise.NormExceeds(d, jitter):
				counts[i] = c + 1
			}
		}
	}
	for i, c := range counts {
		out[i] = bit(2*c > votes)
	}
}

// bit converts a latched level to a response bit.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
