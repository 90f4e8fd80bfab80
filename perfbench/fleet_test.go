package main

import (
	"math"
	"testing"
	"time"

	"pufatt/internal/attest"
)

// smallFleet builds a 16-device fleet for tests.
func smallFleet(t *testing.T, traced bool) *fleet {
	t.Helper()
	f, _, err := buildFleet(fleetConfig{
		seed:           11,
		devices:        16,
		seedsPerDevice: 24,
		workers:        2,
		traced:         traced,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.tracing = traced
	return f
}

// TestTracingIsTransparent runs one seeded session sequence on an
// untraced and a traced fleet: the layer timers must not change a verdict,
// a claim, an audit frame or the simulated compute time.
func TestTracingIsTransparent(t *testing.T) {
	schedule := poissonSchedule(5, 1000, 60*time.Millisecond, 16)
	var fleets [2]*fleet
	for i, traced := range []bool{false, true} {
		f := smallFleet(t, traced)
		for _, a := range schedule {
			if !f.attest(a.device) {
				t.Fatalf("traced=%v: device %d not accepted: %v", traced, a.device, f.totals().firstErr)
			}
		}
		if problems := f.check(); len(problems) > 0 {
			t.Fatalf("traced=%v: %v", traced, problems)
		}
		fleets[i] = f
	}
	plain, traced := fleets[0], fleets[1]
	if plain.auditFrames != traced.auditFrames {
		t.Errorf("audit frames: untraced %d, traced %d", plain.auditFrames, traced.auditFrames)
	}
	for id := range plain.devs {
		p, q := plain.devs[id], traced.devs[id]
		if p.accepted != q.accepted || p.rejected != q.rejected || p.claims != q.claims || p.retries != q.retries {
			t.Errorf("device %d: untraced %d/%d/%d/%d, traced %d/%d/%d/%d (accepted/rejected/claims/retries)",
				id, p.accepted, p.rejected, p.claims, p.retries, q.accepted, q.rejected, q.claims, q.retries)
		}
		if p.elapsed != q.elapsed {
			t.Errorf("device %d: verifier-observed time untraced %g, traced %g", id, p.elapsed, q.elapsed)
		}
		if p.claims == 0 {
			continue
		}
		// The untraced verdict's observed time is the link cost plus
		// the simulated compute the traced prover reported.
		v := p.verifier
		link := plain.link.TransferSeconds(attest.ChallengeBits) + plain.link.TransferSeconds(v.ExpectedResponseBits())
		if got := q.tap.compute; math.Abs(p.elapsed-link-got) > 1e-12 {
			t.Errorf("device %d: traced simulated compute %g s, untraced verdict implies %g s", id, got, p.elapsed-link)
		}
	}
	if n := traced.takeLayers().sessions; n != len(schedule) {
		t.Errorf("traced %d sessions of %d", n, len(schedule))
	}
}

// TestWrappedBudgetIsEpochBudget guards the type assertion the verifier
// makes on its seed budget.
func TestWrappedBudgetIsEpochBudget(t *testing.T) {
	f := smallFleet(t, true)
	if _, ok := f.devs[0].verifier.Seeds.(attest.EpochBudget); !ok {
		t.Fatal("the traced seed budget hides attest.EpochBudget")
	}
}

// TestFleetConcurrentSessions drives a traced fleet from several workers,
// as a run does, for the race detector.
func TestFleetConcurrentSessions(t *testing.T) {
	f := smallFleet(t, true)
	res := runOpenLoop(poissonSchedule(3, 2000, 50*time.Millisecond, 16), 4, func(a arrival) bool { return f.attest(a.device) })
	for i, s := range res.samples {
		if !s.ok {
			t.Fatalf("arrival %d failed: %v", i, f.totals().firstErr)
		}
	}
	if problems := f.check(); len(problems) > 0 {
		t.Fatal(problems)
	}
}
