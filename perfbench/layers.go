package main

import (
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/core"
)

// The traced run times each layer from outside, by wrapping the public
// calls into it: the verifier's seed budget (the cluster's replicated claim
// log), the prover agent (the simulated MCU), and the
// verifier's reference source (the PUF emulator). A wrapper only times
// while its device's tap holds an open session; otherwise it forwards
// untouched, so a traced fleet can also run untraced stretches.

// sessionSpan collects one session's layer timings.
type sessionSpan struct {
	entry      time.Time
	firstClaim time.Time
	claim      time.Duration
	respond    time.Duration
	reference  time.Duration
	claims     int
	references int
}

// layerTap is one device's trace state. A session runs on the goroutine
// that opened it, under the device's lock, so the tap needs no lock of its
// own: it is touched under the device's lock, or between phases when no
// session runs.
type layerTap struct {
	cur *sessionSpan
	rec layerSamples
	// compute is the simulated compute time of the device's first traced
	// prover call; computeVaries records a later call that differed.
	compute       float64
	computeVaries bool
}

// layerSamples accumulates a device's per-call and per-session timings.
type layerSamples struct {
	admit      []time.Duration // session entry → first budget call
	claim      []time.Duration // per budget call
	respond    []time.Duration // per prover call
	reference  []time.Duration // per reference call
	verifySelf []time.Duration // per session, the remainder
	sessions   int
	claims     int
	references int
	session    time.Duration // Σ session time
	respondSum time.Duration // Σ prover time
}

// begin opens a traced session on the tap.
func (t *layerTap) begin() {
	t.cur = &sessionSpan{entry: time.Now()}
}

// end closes the open session. The time before the first budget call is
// the cluster's admission path, not the verifier's own work.
func (t *layerTap) end() {
	s := t.cur
	t.cur = nil
	total := time.Since(s.entry)
	self := total - s.claim - s.respond - s.reference
	if s.claims > 0 {
		admit := s.firstClaim.Sub(s.entry)
		t.rec.admit = append(t.rec.admit, admit)
		self -= admit
	}
	t.rec.verifySelf = append(t.rec.verifySelf, self)
	t.rec.sessions++
	t.rec.claims += s.claims
	t.rec.references += s.references
	t.rec.session += total
	t.rec.respondSum += s.respond
}

// merge folds another device's samples into r.
func (r *layerSamples) merge(o *layerSamples) {
	r.admit = append(r.admit, o.admit...)
	r.claim = append(r.claim, o.claim...)
	r.respond = append(r.respond, o.respond...)
	r.reference = append(r.reference, o.reference...)
	r.verifySelf = append(r.verifySelf, o.verifySelf...)
	r.sessions += o.sessions
	r.claims += o.claims
	r.references += o.references
	r.session += o.session
	r.respondSum += o.respondSum
}

// timedBudget times the seed-budget layer. It implements
// attest.EpochBudget, because Verifier.claimSeed type-asserts it to claim
// the seed and its epoch in one step; the wrapped cluster.Group is one.
type timedBudget struct {
	inner attest.EpochBudget
	tap   *layerTap
}

var _ attest.EpochBudget = (*timedBudget)(nil)

func (b *timedBudget) NextUnusedWithEpoch() (uint64, uint32, error) {
	s := b.tap.cur
	if s == nil {
		return b.inner.NextUnusedWithEpoch()
	}
	t0 := time.Now()
	seed, epoch, err := b.inner.NextUnusedWithEpoch()
	d := time.Since(t0)
	if s.claims == 0 {
		s.firstClaim = t0
	}
	s.claims++
	s.claim += d
	b.tap.rec.claim = append(b.tap.rec.claim, d)
	return seed, epoch, err
}

// NextUnused forwards untimed: the verifier claims through
// NextUnusedWithEpoch whenever its budget is an epoch budget, as here.
func (b *timedBudget) NextUnused() (uint64, error) { return b.inner.NextUnused() }
func (b *timedBudget) Remaining() int              { return b.inner.Remaining() }
func (b *timedBudget) Epoch() uint32               { return b.inner.Epoch() }

// timedAgent times the prover: the simulated MCU running the attestation
// program against its PUF port.
type timedAgent struct {
	inner attest.ProverAgent
	tap   *layerTap
}

func (a *timedAgent) Respond(ch attest.Challenge) (attest.Response, float64, error) {
	s := a.tap.cur
	if s == nil {
		return a.inner.Respond(ch)
	}
	t0 := time.Now()
	resp, compute, err := a.inner.Respond(ch)
	d := time.Since(t0)
	s.respond += d
	a.tap.rec.respond = append(a.tap.rec.respond, d)
	switch {
	case a.tap.compute == 0:
		a.tap.compute = compute
	case compute != a.tap.compute:
		a.tap.computeVaries = true
	}
	return resp, compute, err
}

// timedSource times the verifier's reference source: PUF emulation of the
// enrolled device.
type timedSource struct {
	inner core.ReferenceSource
	tap   *layerTap
}

func (r *timedSource) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	s := r.tap.cur
	if s == nil {
		return r.inner.ReferenceResponse(seed, j)
	}
	t0 := time.Now()
	out, err := r.inner.ReferenceResponse(seed, j)
	d := time.Since(t0)
	s.references++
	s.reference += d
	r.tap.rec.reference = append(r.tap.rec.reference, d)
	return out, err
}

func (r *timedSource) ResponseBits() int { return r.inner.ResponseBits() }
