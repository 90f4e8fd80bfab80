package rng

import (
	"math"
	"testing"
)

// normSigmas are the jitter scales the twin-stream test cycles through:
// ordinary ones around the arbiter model's picoseconds, and edge values
// (zero, negative, subnormal, huge, infinite, NaN) that must take the
// literal path and still agree.
var normSigmas = []float64{
	1, 2.5, 0.37, 7.3, 1e-3, 1e3, 12.25,
	0, -1.5, 5e-324, 1e-310, 1e300, math.Inf(1), math.NaN(),
}

// normDelta picks the delta for one twin-stream draw whose literal jitter
// is y = NormMS(0, sigma). Kind selects one of: signed zeros, the smallest
// subnormal, ±1e-300, huge and infinite values, NaN, integers, ±k·sigma,
// a uniform spread over ±4·sigma, and values at and around −y, where the
// answer flips: −y itself, its float neighbours, and −y moved by relative
// amounts inside and just outside the guard band.
func normDelta(kind int, y, sigma, r float64) float64 {
	switch kind {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64
	case 3:
		return -math.SmallestNonzeroFloat64
	case 4:
		return 1e-300
	case 5:
		return -1e-300
	case 6:
		return 1e300
	case 7:
		return -1e300
	case 8:
		return math.MaxFloat64
	case 9:
		return -math.MaxFloat64
	case 10:
		return math.Inf(1)
	case 11:
		return math.Inf(-1)
	case 12:
		return math.NaN()
	case 13:
		return 1
	case 14:
		return -1
	case 15:
		return -3
	case 16:
		return 7
	case 17:
		return sigma
	case 18:
		return -sigma
	case 19:
		return 2 * sigma
	case 20:
		return -2 * sigma
	case 21:
		return 3 * sigma
	case 22:
		return -3 * sigma
	case 23:
		return 0.5 * sigma
	case 24:
		return -0.5 * sigma
	case 25:
		return 8 * (r - 0.5) * sigma
	case 26:
		return -y
	case 27:
		return math.Nextafter(-y, math.Inf(1))
	case 28:
		return math.Nextafter(-y, math.Inf(-1))
	case 29:
		return -y * (1 + 0x1p-44)
	case 30:
		return -y * (1 - 0x1p-44)
	case 31:
		return -y * (1 + 0x1p-38)
	default:
		return -y * (1 - 0x1p-38)
	}
}

const normDeltaKinds = 33

// TestNormExceedsTwinStreams runs NormExceeds and SkipNorm against NormMS
// and Norm on identically seeded twin streams for 10⁷ draws: every
// decision must equal d + NormMS(0, σ) > 0, and the streams must end at
// the same position.
func TestNormExceedsTwinStreams(t *testing.T) {
	const draws = 10_000_000
	ref, fast := New(2014), New(2014)
	pick := New(77) // the deltas' own randomness, apart from the twins
	var flips [2]int
	for i := 0; i < draws; i++ {
		if i%11 == 5 {
			ref.Norm()
			fast.SkipNorm()
			continue
		}
		sigma := normSigmas[i%len(normSigmas)]
		kind := (i / len(normSigmas)) % normDeltaKinds
		y := ref.NormMS(0, sigma)
		d := normDelta(kind, y, sigma, pick.Float64())
		want := d+y > 0
		if got := fast.NormExceeds(d, sigma); got != want {
			t.Fatalf("draw %d: NormExceeds(%v, %v) = %v, want %v (jitter %v)", i, d, sigma, got, want, y)
		}
		if want {
			flips[1]++
		} else {
			flips[0]++
		}
	}
	if a, b := ref.Uint64(), fast.Uint64(); a != b {
		t.Fatalf("twin streams at different positions after %d draws: %x vs %x", draws, a, b)
	}
	if flips[0] < draws/10 || flips[1] < draws/10 {
		t.Fatalf("decisions lopsided (%d false, %d true): the deltas do not exercise both answers", flips[0], flips[1])
	}
}

// literalExceeds is the NormMS expression NormExceeds must reproduce, on
// a given accepted polar pair.
func literalExceeds(d, sigma, u, q float64) (bool, float64) {
	y := 0 + sigma*(u*math.Sqrt(-2*math.Log(q)/q))
	return d+y > 0, y
}

// TestExceedsGuardBandNearOne drives the decision kernel at deltas on and
// beside the flip point, with q within 2⁻¹⁹ of 1. There its bounds on
// −2 ln q are tighter than the literal draw's rounding, and a stream gets
// there only about once in 5·10⁵ draws, so the twin-stream test cannot
// cover it. Without the guard band, or with 1−q² rounded naively, a bound
// would decide against the rounded literal value here.
func TestExceedsGuardBandNearOne(t *testing.T) {
	var qs []float64
	for k := 1; k <= 4096; k++ {
		qs = append(qs, 1-float64(k)*0x1p-53)
	}
	for e := 20; e <= 52; e++ {
		qs = append(qs, 1-math.Ldexp(1, -e), 1-3*math.Ldexp(1, -e-1))
	}
	// Further out, to 1−q ≈ 2⁻¹⁹, a naively rounded 1−q² would carry a
	// relative error far above the guard band while the bounds are still
	// tighter than it.
	ks := New(5)
	for j := 0; j < 2048; j++ {
		k := 1<<10 + ks.Intn(1<<34)
		qs = append(qs, 1-float64(k)*0x1p-53)
	}
	checked := 0
	for _, q := range qs {
		for _, uf := range []float64{0.999, 0.6, 0x1p-20} {
			for _, sign := range []float64{1, -1} {
				u := sign * uf * math.Sqrt(q)
				for _, sigma := range []float64{1, 2.75, 0.013} {
					_, y := literalExceeds(0, sigma, u, q)
					for _, d := range []float64{
						-y,
						math.Nextafter(-y, math.Inf(1)),
						math.Nextafter(-y, math.Inf(-1)),
						-y * (1 + 0x1p-44),
						-y * (1 - 0x1p-44),
					} {
						want, _ := literalExceeds(d, sigma, u, q)
						if got := exceeds(d, sigma, u, q); got != want {
							t.Fatalf("exceeds(%v, %v, u=%v, q=1-%v) = %v, want %v", d, sigma, u, 1-q, got, want)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cases checked")
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	hits := 0
	for i := 0; i < b.N; i++ {
		if 0.75+s.NormMS(0, 2.5) > 0 {
			hits++
		}
	}
	if hits == 0 {
		b.Fatal("no draw exceeded")
	}
}

func BenchmarkNormExceeds(b *testing.B) {
	s := New(1)
	hits := 0
	for i := 0; i < b.N; i++ {
		if s.NormExceeds(0.75, 2.5) {
			hits++
		}
	}
	if hits == 0 {
		b.Fatal("no draw exceeded")
	}
}
