package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pufatt/internal/crp"
)

// The epoch lifecycle's crash matrix. Each test drives the store to one of
// the cutover protocol's kill points — before the transition record, after
// it but before the snapshot rename, after the rename with the staged file
// lost — by replaying the exact on-disk state such a crash leaves, then
// reopens and asserts the invariant that matters: a retired epoch's seeds
// are never claimable again, and an uncommitted cutover never becomes one.

// stageSeeds returns a per-epoch seed set disjoint from enrollN's 1..n, so
// cross-epoch confusion shows up as ErrUnknownSeed instead of aliasing.
func stageSeeds(epoch uint32, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(epoch)*1000 + uint64(i+1)
	}
	return out
}

// claimFrame / transitionFrame build the documented 16-byte WAL frames by
// hand — doubling as a format regression test: if the encoding drifts,
// these surgeries stop matching what openWAL accepts.
func claimFrame(seed uint64) []byte {
	rec := make([]byte, walRecordSize)
	binary.LittleEndian.PutUint32(rec[0:4], walMagic)
	binary.LittleEndian.PutUint64(rec[4:12], seed)
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(rec[0:12]))
	return rec
}

func transitionFrame(from, to uint32) []byte {
	rec := make([]byte, walRecordSize)
	binary.LittleEndian.PutUint32(rec[0:4], walEpochMagic)
	binary.LittleEndian.PutUint32(rec[4:8], from)
	binary.LittleEndian.PutUint32(rec[8:12], to)
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(rec[0:12]))
	return rec
}

func appendWAL(t *testing.T, dir string, frames ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, fr := range frames {
		if _, err := f.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEpochReenrollCycle: the happy path — stage, commit, fresh budget,
// old seeds gone, all of it durable across a clean reopen.
func TestEpochReenrollCycle(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	if st.Epoch() != 0 {
		t.Fatalf("fresh enrollment epoch = %d, want 0", st.Epoch())
	}
	if err := st.Claim(1); err != nil {
		t.Fatal(err)
	}

	dev := testDevice(t)
	dev.SetEpoch(1)
	if err := st.Reenroll(dev, stageSeeds(1, 3), 0); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 || st.Remaining() != 3 {
		t.Fatalf("after cutover: epoch=%d remaining=%d, want 1/3", st.Epoch(), st.Remaining())
	}
	// The old epoch's seeds are not claimable — not even the unused ones.
	for seed := uint64(1); seed <= 4; seed++ {
		if err := st.Claim(seed); !errors.Is(err, crp.ErrUnknownSeed) {
			t.Fatalf("old-epoch seed %d after cutover: %v, want ErrUnknownSeed", seed, err)
		}
	}
	if err := st.Claim(1001); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 1 || re.Remaining() != 2 {
		t.Fatalf("reopen: epoch=%d remaining=%d, want 1/2", re.Epoch(), re.Remaining())
	}
	if err := re.Claim(1001); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("new-epoch claim lost across reopen: %v", err)
	}
}

// TestKillBeforeTransitionDiscardsStaging: the cutover dies after the
// staged snapshot is durable but before the transition record. The cutover
// never committed, so reopen must discard the staging file and leave the
// old epoch fully live — claims included.
func TestKillBeforeTransitionDiscardsStaging(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	if err := st.Claim(2); err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t)
	dev.SetEpoch(1)
	if _, err := st.StageEpoch(dev, stageSeeds(1, 3), 0); err != nil {
		t.Fatal(err)
	}
	st.Close() // kill: staged but never committed

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 0 || re.Retired() {
		t.Fatalf("uncommitted cutover changed the store: epoch=%d retired=%v", re.Epoch(), re.Retired())
	}
	if err := re.Claim(2); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("old-epoch claim lost: %v", err)
	}
	if got := re.Remaining(); got != 3 {
		t.Fatalf("Remaining = %d, want 3", got)
	}
	if err := re.Claim(1001); !errors.Is(err, crp.ErrUnknownSeed) {
		t.Fatalf("staged seed leaked into the live epoch: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, stagingFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging file not discarded: %v", err)
	}
}

// TestKillAfterTransitionCompletesCutover: the cutover dies between the
// transition record (the commit point) and the snapshot rename. The staged
// file survived, so reopen must finish the rename: new epoch live, fresh
// budget, every old seed — claimed or not — gone for good.
func TestKillAfterTransitionCompletesCutover(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	if err := st.Claim(1); err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t)
	dev.SetEpoch(1)
	if _, err := st.StageEpoch(dev, stageSeeds(1, 3), 0); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Kill point: the transition record made it to the WAL, the rename did
	// not happen. (Commit does both under one lock; the crash state is
	// reconstructed on disk.)
	appendWAL(t, dir, transitionFrame(0, 1))

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("recovery from committed transition failed: %v", err)
	}
	defer re.Close()
	if re.Epoch() != 1 || re.Retired() {
		t.Fatalf("epoch=%d retired=%v, want live epoch 1", re.Epoch(), re.Retired())
	}
	if got := re.Remaining(); got != 3 {
		t.Fatalf("recovered budget = %d, want 3", got)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		if err := re.Claim(seed); !errors.Is(err, crp.ErrUnknownSeed) {
			t.Fatalf("retired-epoch seed %d resurrected: %v", seed, err)
		}
	}
	if seed, epoch, err := re.NextUnusedWithEpoch(); err != nil || seed != 1001 || epoch != 1 {
		t.Fatalf("NextUnusedWithEpoch = (%d, %d, %v), want (1001, 1, nil)", seed, epoch, err)
	}
	if _, err := os.Stat(filepath.Join(dir, stagingFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging file still present after recovery rename: %v", err)
	}
}

// TestKillAfterTransitionStagingLostRetires: worst case — the transition
// committed and the staged enrollment was lost (crash before its rename,
// disk gave the file up). The old epoch is retired; the store must refuse
// every claim and reference until a re-enrollment installs the awaited
// epoch. Resurrecting the still-readable old snapshot would be the
// security bug this whole protocol exists to prevent.
func TestKillAfterTransitionStagingLostRetires(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	if err := st.Claim(1); err != nil {
		t.Fatal(err)
	}
	st.Close()
	appendWAL(t, dir, transitionFrame(0, 1)) // committed cutover, no staging file

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("retired store must open (observably), not error: %v", err)
	}
	if !re.Retired() || re.AwaitingEpoch() != 1 {
		t.Fatalf("retired=%v awaiting=%d, want true/1", re.Retired(), re.AwaitingEpoch())
	}
	if got := re.Remaining(); got != 0 {
		t.Fatalf("retired Remaining = %d, want 0", got)
	}
	// Every claim surface fails with ErrEpochRetired — which is an
	// exhausted budget to the attestation layer, not corruption.
	if err := re.Claim(2); !errors.Is(err, ErrEpochRetired) || !errors.Is(err, crp.ErrExhausted) {
		t.Fatalf("Claim on retired store: %v", err)
	}
	if _, _, err := re.NextUnusedWithEpoch(); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("NextUnusedWithEpoch on retired store: %v", err)
	}
	if _, err := re.ReferenceResponse(1, 0); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("ReferenceResponse on retired store: %v", err)
	}
	if err := re.Compact(); err != nil {
		t.Fatalf("Compact on retired store must be a safe no-op: %v", err)
	}
	re.Close()

	// Retirement is stable across another crash/reopen cycle.
	re2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !re2.Retired() {
		t.Fatal("retirement lost on second reopen")
	}

	// Recovery: re-enroll at the awaited epoch. Budget returns, old seeds
	// stay dead, and the recovered state is durable.
	dev := testDevice(t)
	dev.SetEpoch(1)
	if err := re2.Reenroll(dev, stageSeeds(1, 5), 0); err != nil {
		t.Fatalf("re-enrollment of retired store: %v", err)
	}
	if re2.Retired() || re2.Epoch() != 1 || re2.Remaining() != 5 {
		t.Fatalf("after recovery: retired=%v epoch=%d remaining=%d", re2.Retired(), re2.Epoch(), re2.Remaining())
	}
	if err := re2.Claim(1); !errors.Is(err, crp.ErrUnknownSeed) {
		t.Fatalf("retired-epoch seed claimable after recovery: %v", err)
	}
	re2.Close()
	re3, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re3.Close()
	if re3.Epoch() != 1 || re3.Remaining() != 5 {
		t.Fatalf("recovered enrollment not durable: epoch=%d remaining=%d", re3.Epoch(), re3.Remaining())
	}
}

// TestCommitRenameFailureRetiresLiveStore: the staged file vanishes
// between StageEpoch and Commit, so Commit fails after its transition
// record is durable. The live store must from then on behave exactly as a
// reopen of its directory does — retired, awaiting the staged epoch, no
// old-epoch seed ever handed out — and recover by re-enrollment.
func TestCommitRenameFailureRetiresLiveStore(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	defer st.Close()
	if err := st.Claim(1); err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t)
	dev.SetEpoch(1)
	staged, err := st.StageEpoch(dev, stageSeeds(1, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, stagingFile)); err != nil {
		t.Fatal(err)
	}
	if err := staged.Commit(); err == nil {
		t.Fatal("Commit without its staged snapshot succeeded")
	}
	if !st.Retired() || st.AwaitingEpoch() != 1 || st.Remaining() != 0 {
		t.Fatalf("after failed commit: retired=%v awaiting=%d remaining=%d, want true/1/0",
			st.Retired(), st.AwaitingEpoch(), st.Remaining())
	}
	if seed, epoch, err := st.NextUnusedWithEpoch(); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("NextUnusedWithEpoch after failed commit = (%d, %d, %v), want ErrEpochRetired", seed, epoch, err)
	}
	if err := st.Claim(2); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("Claim after failed commit: %v, want ErrEpochRetired", err)
	}

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !re.Retired() || re.AwaitingEpoch() != 1 {
		t.Fatalf("reopen: retired=%v awaiting=%d, want true/1", re.Retired(), re.AwaitingEpoch())
	}
	re.Close()

	if err := st.Reenroll(dev, stageSeeds(1, 3), 0); err != nil {
		t.Fatalf("re-enrollment after failed commit: %v", err)
	}
	if st.Retired() || st.Epoch() != 1 || st.Remaining() != 3 {
		t.Fatalf("after recovery: retired=%v epoch=%d remaining=%d", st.Retired(), st.Epoch(), st.Remaining())
	}
}

// TestWALClaimsSplitByTransition: a crash between the cutover's rename and
// its WAL reset leaves old-epoch claims AND the transition AND new-epoch
// claims in one log, with the new snapshot live. Replay must skip
// everything before the transition (those seeds are not even enrolled any
// more — that is not corruption) and apply everything after it.
func TestWALClaimsSplitByTransition(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	dev := testDevice(t)
	dev.SetEpoch(1)
	if err := st.Reenroll(dev, stageSeeds(1, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Claim(1001); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Reconstruct the pre-reset WAL: old-epoch claims and the transition in
	// front of the post-cutover claim that is currently the log's only
	// record.
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	pre := append(claimFrame(1), claimFrame(2)...)
	pre = append(pre, transitionFrame(0, 1)...)
	if err := os.WriteFile(filepath.Join(dir, walFile), append(pre, data...), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("split WAL replay failed: %v", err)
	}
	defer re.Close()
	if re.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", re.Epoch())
	}
	if err := re.Claim(1001); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("post-transition claim not replayed: %v", err)
	}
	if err := re.Claim(1002); err != nil {
		t.Fatal(err)
	}
	if got := re.Remaining(); got != 1 {
		t.Fatalf("Remaining = %d, want 1", got)
	}
}

// TestStageEpochOrder: epochs are monotonic. Staging at or below the live
// epoch fails; a retired store additionally refuses anything below the
// epoch its lost cutover committed to.
func TestStageEpochOrder(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 3)
	defer st.Close()
	dev := testDevice(t) // epoch 0 == store epoch
	if _, err := st.StageEpoch(dev, stageSeeds(0, 2), 0); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("staging the live epoch: %v, want ErrEpochOrder", err)
	}
	dev.SetEpoch(2)
	if err := st.Reenroll(dev, stageSeeds(2, 2), 0); err != nil {
		t.Fatal(err)
	}
	dev.SetEpoch(1)
	if _, err := st.StageEpoch(dev, stageSeeds(1, 2), 0); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("staging below the live epoch: %v, want ErrEpochOrder", err)
	}

	// Retired store awaiting epoch 5: epoch 3 is above the live snapshot but
	// below the committed target — still refused.
	dir2 := t.TempDir()
	st2 := enrollN(t, dir2, 3)
	st2.Close()
	appendWAL(t, dir2, transitionFrame(0, 5))
	re, err := Open(dir2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	dev.SetEpoch(3)
	if _, err := re.StageEpoch(dev, stageSeeds(3, 2), 0); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("staging below the awaited epoch: %v, want ErrEpochOrder", err)
	}
	dev.SetEpoch(5)
	if err := re.Reenroll(dev, stageSeeds(5, 2), 0); err != nil {
		t.Fatalf("re-enrolling at the awaited epoch: %v", err)
	}
	if re.Epoch() != 5 || re.Retired() {
		t.Fatalf("epoch=%d retired=%v after awaited re-enrollment", re.Epoch(), re.Retired())
	}
}

// TestDiscardAbandonsStaging: Discard removes the staged file, the live
// epoch is untouched, and a later commit of the discarded staging fails
// instead of installing ghost state.
func TestDiscardAbandonsStaging(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 3)
	defer st.Close()
	dev := testDevice(t)
	dev.SetEpoch(1)
	staged, err := st.StageEpoch(dev, stageSeeds(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := staged.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, stagingFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging survives Discard: %v", err)
	}
	if st.Epoch() != 0 || st.Remaining() != 3 {
		t.Fatalf("Discard touched the live epoch: epoch=%d remaining=%d", st.Epoch(), st.Remaining())
	}
	if err := staged.Commit(); err == nil {
		t.Fatal("committing a discarded staging succeeded")
	}
	// Double Discard is a no-op, not an error.
	if err := staged.Discard(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitIsMonotonic: a staged epoch can only be committed while it
// still advances the store — committing twice, or after a later cutover,
// fails with ErrEpochOrder.
func TestCommitIsMonotonic(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 3)
	defer st.Close()
	dev := testDevice(t)
	dev.SetEpoch(1)
	staged, err := st.StageEpoch(dev, stageSeeds(1, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := staged.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := staged.Commit(); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("double Commit: %v, want ErrEpochOrder", err)
	}
}

// TestEpochCutoverClaimRace is the -race hammer: claimers hammer
// NextUnusedWithEpoch while a cutover stages and commits underneath them.
// Invariants under contention: (seed, epoch) pairs are never double-issued,
// every seed is reported under the epoch it belongs to (the atomic pair —
// no session can straddle the cutover), and the new epoch drains exactly
// once.
func TestEpochCutoverClaimRace(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	st := enrollN(t, dir, n)
	defer st.Close()

	dev := testDevice(t)
	dev.SetEpoch(1)
	staged, err := st.StageEpoch(dev, stageSeeds(1, n), 0)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	claimed := make(map[[2]uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed, epoch, err := st.NextUnusedWithEpoch()
				if err != nil {
					if !errors.Is(err, crp.ErrExhausted) {
						t.Errorf("claim: %v", err)
						return
					}
					if epoch >= 1 {
						return // new epoch drained: done
					}
					runtime.Gosched() // old epoch dry, cutover pending
					continue
				}
				switch epoch {
				case 0:
					if seed < 1 || seed > n {
						t.Errorf("epoch 0 issued foreign seed %d", seed)
					}
				case 1:
					if seed < 1001 || seed > 1000+n {
						t.Errorf("epoch 1 issued foreign seed %d", seed)
					}
				default:
					t.Errorf("claim under unknown epoch %d", epoch)
				}
				mu.Lock()
				key := [2]uint64{uint64(epoch), seed}
				if claimed[key] {
					t.Errorf("seed %d double-issued in epoch %d", seed, epoch)
				}
				claimed[key] = true
				mu.Unlock()
			}
		}()
	}

	// Let the claimers drain roughly half the old budget, then cut over
	// while they are mid-flight.
	for st.Remaining() > n/2 {
		runtime.Gosched()
	}
	if err := staged.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if st.Epoch() != 1 || st.Remaining() != 0 {
		t.Fatalf("after race: epoch=%d remaining=%d, want 1/0", st.Epoch(), st.Remaining())
	}
	newClaims := 0
	for key := range claimed {
		if key[0] == 1 {
			newClaims++
		}
	}
	if newClaims != n {
		t.Fatalf("epoch 1 drained %d seeds, want %d", newClaims, n)
	}
}
