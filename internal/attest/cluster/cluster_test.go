package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/mcu"
	"pufatt/internal/obfuscate"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// fakeEnrollment builds enrollment material without measuring a device,
// through crp's from-rows constructor: group/replication semantics don't
// need real references, so row (s, j) is the two bytes {s, j}.
func fakeEnrollment(device int, epoch uint32, seeds ...uint64) *Enrollment {
	var rows [][]uint8
	for _, s := range seeds {
		for j := 0; j < obfuscate.ResponsesPerOutput; j++ {
			rows = append(rows, []uint8{uint8(s), uint8(j)})
		}
	}
	e, err := crp.FromRows(device, 2, epoch, seeds, rows)
	if err != nil {
		panic(err)
	}
	return e
}

func threeShards(t *testing.T, autoFailover bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		Replicas:     3,
		AutoFailover: autoFailover,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGroupReplicatesClaims(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(7, 1, 11, 22, 33))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Remaining(); got != 3 {
		t.Fatalf("Remaining = %d, want 3", got)
	}
	for i, want := range []uint64{11, 22} {
		seed, epoch, err := g.NextUnusedWithEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if seed != want || epoch != 1 {
			t.Fatalf("claim %d: (%d, %d), want (%d, 1)", i, seed, epoch, want)
		}
	}
	// Log before acknowledge, synchronously: every live replica holds both
	// claims and the high-water mark has advanced with them.
	for _, sid := range g.Replicas() {
		if got := g.Applied(sid); got != 2 {
			t.Fatalf("replica %s applied %d, want 2", sid, got)
		}
	}
	if got := g.HighWaterMark(); got != 2 {
		t.Fatalf("hwm = %d, want 2", got)
	}
	if got := g.Remaining(); got != 1 {
		t.Fatalf("Remaining = %d, want 1", got)
	}
	if audit := c.AuditClaims(); !audit.Clean() || audit.Frames != 2 {
		t.Fatalf("audit = %+v, want clean with 2 frames", audit)
	}
}

func TestGroupExhaustion(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(3, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	_, err = g.NextUnused()
	if !errors.Is(err, crp.ErrExhausted) {
		t.Fatalf("exhausted budget: %v, want crp.ErrExhausted", err)
	}
	if !attest.IsExhausted(err) {
		t.Fatal("attest.IsExhausted must recognise a drained group")
	}
}

// The fail-closed core: a follower that missed claims while dead must not
// win leadership after reviving, because the missing claims were released
// to real sessions.
func TestPromotionRefusesStaleReplica(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(1, 1, 10, 20, 30, 40, 50))
	if err != nil {
		t.Fatal(err)
	}
	reps := g.Replicas()
	leader, followA, followB := reps[0], reps[1], reps[2]

	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	// followB dies and misses two acknowledged claims.
	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.NextUnused(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.Applied(followB), uint64(1); got != want {
		t.Fatalf("dead follower applied %d, want %d", got, want)
	}
	if got := g.HighWaterMark(); got != 3 {
		t.Fatalf("hwm = %d, want 3", got)
	}

	// It revives exactly as stale as its downtime left it; the leader dies.
	if err := c.Revive(followB); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	if err := g.Promote(followB); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("stale promotion: %v, want ErrStaleReplica", err)
	}
	if attest.IsTransport(g.Promote(followB)) {
		t.Fatal("ErrStaleReplica must not be classified as transport")
	}
	// Without auto-failover a dead leader is an operator problem.
	if _, err := g.NextUnused(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("claims with dead leader: %v, want ErrNoLeader", err)
	}
	// The caught-up follower may serve, and continues the seed order.
	if err := g.Promote(followA); err != nil {
		t.Fatal(err)
	}
	seed, err := g.NextUnused()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 40 {
		t.Fatalf("post-promotion claim = %d, want 40 (no seed re-issued)", seed)
	}
	// Misc refusals: dead candidate, non-replica.
	if err := g.Promote(leader); !errors.Is(err, ErrShardDown) {
		t.Fatalf("promoting dead shard: %v, want ErrShardDown", err)
	}
	if err := g.Promote("ghost"); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("promoting non-replica: %v", err)
	}
	if audit := c.AuditClaims(); !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
}

func TestAutoFailoverPicksCaughtUpReplica(t *testing.T) {
	c := threeShards(t, true)
	g, err := c.Enroll(fakeEnrollment(2, 1, 10, 20, 30, 40))
	if err != nil {
		t.Fatal(err)
	}
	reps := g.Replicas()
	leader, followA, followB := reps[0], reps[1], reps[2]

	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.NextUnused(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Revive(followB); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	// Auto-failover must pick the caught-up follower, never the stale one.
	seed, err := g.NextUnused()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 30 {
		t.Fatalf("failover claim = %d, want 30", seed)
	}
	if lead, err := g.Leader(); err != nil || lead != followA {
		t.Fatalf("leader = %s (%v), want %s", lead, err, followA)
	}
	// All replicas down: nothing may serve.
	if err := c.Kill(followA); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextUnused(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("all-dead claim: %v, want ErrNoLeader", err)
	}
}

func TestGroupCommitEpoch(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(4, 1, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	if err := g.CommitEpoch(fakeEnrollment(9, 2, 100)); err == nil {
		t.Fatal("cross-device enrollment accepted")
	}
	if err := g.CommitEpoch(fakeEnrollment(4, 1, 100)); err == nil {
		t.Fatal("same-epoch re-enrollment accepted")
	}
	if err := g.CommitEpoch(fakeEnrollment(4, 2, 100, 200)); err != nil {
		t.Fatal(err)
	}
	if got := g.Epoch(); got != 2 {
		t.Fatalf("epoch = %d after commit, want 2", got)
	}
	seed, epoch, err := g.NextUnusedWithEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 100 || epoch != 2 {
		t.Fatalf("post-cutover claim = (%d, %d), want (100, 2)", seed, epoch)
	}
	// The transition frame replicated like any claim: every replica saw it.
	for _, sid := range g.Replicas() {
		if got := g.Applied(sid); got != 3 { // claim + transition + claim
			t.Fatalf("replica %s applied %d, want 3", sid, got)
		}
	}
	if audit := c.AuditClaims(); !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
}

func TestReferenceResponseRequiresClaim(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(5, 1, 77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReferenceResponse(77, 0); err == nil {
		t.Fatal("unclaimed seed's references served")
	}
	if _, err := g.ReferenceResponse(999, 0); !errors.Is(err, crp.ErrUnknownSeed) {
		t.Fatalf("unknown seed: %v, want crp.ErrUnknownSeed", err)
	}
	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	ref, err := g.ReferenceResponse(77, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 2 || ref[0] != 77 || ref[1] != 1 {
		t.Fatalf("reference = %v", ref)
	}
	if _, err := g.ReferenceResponse(77, obfuscate.ResponsesPerOutput); err == nil {
		t.Fatal("out-of-range reference index served")
	}
}

// --- real-device fleet tests -------------------------------------------

var (
	fleetOnce   sync.Once
	fleetDesign *core.Design
	fleetImage  *swatt.Image
)

func fleetFixtures(t *testing.T) (*core.Design, *swatt.Image) {
	t.Helper()
	fleetOnce.Do(func() {
		fleetDesign = core.MustNewDesign(core.DefaultConfig())
		img, err := swatt.BuildImage(loadParams(), make([]uint32, 64))
		if err != nil {
			t.Fatal(err)
		}
		fleetImage = img
	})
	return fleetDesign, fleetImage
}

// TestNewEnrollmentMatchesScalarEngine checks the batch-measured cluster
// enrollment against the scalar reference engine: after each seed is
// claimed through the group, every expansion served must equal
// Device.NoiselessResponse, and the enrollment carries the device's chip
// and epoch.
func TestNewEnrollmentMatchesScalarEngine(t *testing.T) {
	design, _ := fleetFixtures(t)
	dev, err := core.NewDevice(design, rng.New(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetEpoch(2)
	seeds := []uint64{3, 14, 159, 2653}
	enr, err := NewEnrollment(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if enr.ChipID() != 3 || enr.Epoch() != 2 || enr.Len() != len(seeds) {
		t.Fatalf("enrollment chip=%d epoch=%d len=%d, want 3/2/%d", enr.ChipID(), enr.Epoch(), enr.Len(), len(seeds))
	}
	c := threeShards(t, false)
	g, err := c.Enroll(enr)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		if got, err := g.NextUnused(); err != nil || got != seed {
			t.Fatalf("NextUnused = %d, %v; want %d", got, err, seed)
		}
		for j := 0; j < obfuscate.ResponsesPerOutput; j++ {
			want := dev.NoiselessResponse(design.ExpandChallenge(seed, j))
			got, err := g.ReferenceResponse(seed, j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d ref %d: enrollment disagrees with the scalar engine", seed, j)
			}
		}
	}
	if _, err := NewEnrollment(dev, []uint64{9, 9}); err == nil {
		t.Fatal("duplicate enrollment seed accepted")
	}
}

// bindTestDevice simulates a device, enrolls it, and binds a full
// verifier/prover session endpoint, mirroring a production bring-up.
func bindTestDevice(t *testing.T, c *Cluster, id, numSeeds int) *Group {
	t.Helper()
	design, image := fleetFixtures(t)
	dev, err := core.NewDevice(design, rng.New(uint64(id)+1), id)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, numSeeds)
	for k := range seeds {
		seeds[k] = uint64(id)<<20 | uint64(k+1)
	}
	enr, err := NewEnrollment(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Enroll(enr)
	if err != nil {
		t.Fatal(err)
	}
	port, err := mcu.NewDevicePort(dev)
	if err != nil {
		t.Fatal(err)
	}
	prover := attest.NewProver(image.Clone(), port, 1)
	prover.TuneClock(0.98)
	link := attest.DefaultLink()
	// Emulator as reference source, Group as the replicated claim budget —
	// the same split the in-process budgets use.
	v, err := attest.NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	v.WithSeedBudget(g)
	v.PUFEpoch = enr.Epoch()
	v.Nonces = rng.New(uint64(id)*3 + 7).Uint32
	v.AllowNetwork(link)
	if err := c.Bind(id, v, prover, link); err != nil {
		t.Fatal(err)
	}
	return g
}

// The acceptance scenario: a 3-shard cluster with one shard killed
// mid-sweep serves every device on both sweeps, and the merged claim-log
// audit proves zero duplicate seed claims across the failover.
func TestClusterLeaderKillMidSweep(t *testing.T) {
	c := threeShards(t, true)
	const devices = 24
	for id := 0; id < devices; id++ {
		bindTestDevice(t, c, id, 8)
	}
	policy := attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 1}

	var out map[int]SweepOutcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		out = c.Sweep(context.Background(), policy, 6)
	}()
	time.Sleep(2 * time.Millisecond)
	if err := c.Kill("shard-0"); err != nil {
		t.Fatal(err)
	}
	<-done

	for id, o := range out {
		if o.Err != nil {
			t.Fatalf("device %d sweep 1: %v", id, o.Err)
		}
		if !o.Result.Accepted {
			t.Fatalf("device %d sweep 1 rejected: %s", id, o.Result.Reason)
		}
	}
	// Second sweep with the shard still dead: every device it led is now
	// served by a promoted, caught-up replica.
	for id, o := range c.Sweep(context.Background(), policy, 6) {
		if o.Err != nil || !o.Result.Accepted {
			t.Fatalf("device %d sweep 2: err=%v accepted=%v", id, o.Err, o.Result.Accepted)
		}
	}
	audit := c.AuditClaims()
	if !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
	if audit.Devices != devices {
		t.Fatalf("audit covered %d devices, want %d", audit.Devices, devices)
	}
	// Exactly once per session: two accepted sessions per device, so the
	// longest live log holds exactly two claim frames each.
	if want := 2 * devices; audit.Frames != want {
		t.Fatalf("audit frames = %d, want %d (one claim per accepted session)", audit.Frames, want)
	}
	if len(audit.DeadShards) != 1 || audit.DeadShards[0] != "shard-0" {
		t.Fatalf("dead shards = %v", audit.DeadShards)
	}
}

// Overload is a verdict about capacity, not a transport fault: Attest must
// surface it with zero protocol attempts and the retry machinery must
// never classify it as retryable.
func TestAttestOverloadTerminal(t *testing.T) {
	c, err := New(Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		Replicas:     3,
		MaxInFlight:  1,
		MaxQueue:     -1, // no queue: reject at the gate
		AutoFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = 0
	bindTestDevice(t, c, id, 4)
	shardID := c.Ring().Route(DeviceKey(id))
	release, err := c.Shard(shardID).Admission().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, attempts, err := c.Attest(context.Background(), id, attest.RetryPolicy{MaxAttempts: 5, JitterSeed: 1})
	if !IsOverload(err) {
		t.Fatalf("saturated shard: %v, want OverloadError", err)
	}
	if attempts != 0 {
		t.Fatalf("overload consumed %d protocol attempts, want 0", attempts)
	}
	if attest.IsTransport(err) {
		t.Fatal("OverloadError must not be classified as transport")
	}
	release()
	res, _, err := c.Attest(context.Background(), id, attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 1})
	if err != nil || !res.Accepted {
		t.Fatalf("post-release attest: err=%v accepted=%v", err, res.Accepted)
	}
}

func TestClusterEnrollAndBindValidation(t *testing.T) {
	c := threeShards(t, false)
	if _, err := c.Enroll(fakeEnrollment(1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Enroll(fakeEnrollment(1, 1, 20)); err == nil {
		t.Fatal("duplicate enrollment accepted")
	}
	if err := c.Bind(99, nil, nil, attest.Link{}); err == nil {
		t.Fatal("binding an unenrolled device accepted")
	}
	if _, _, err := c.Attest(context.Background(), 42, attest.RetryPolicy{MaxAttempts: 1}); err == nil {
		t.Fatal("attesting an unknown device accepted")
	}
	if err := c.Kill("nope"); err == nil {
		t.Fatal("killing an unknown shard accepted")
	}
	if err := c.Revive("nope"); err == nil {
		t.Fatal("reviving an unknown shard accepted")
	}
	if got := fmt.Sprint(c.Devices()); got != "[1]" {
		t.Fatalf("Devices() = %s", got)
	}
}
