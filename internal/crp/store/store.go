// Package store is the durable, concurrent-safe CRP enrollment store: the
// verifier-side persistence layer for the paper's database verification
// path. The layering is crp → store → cluster: package crp owns the
// enrollment (crp.Enrollment: seeds, flat reference matrix, one measuring
// path) and every claim rule (crp.Claims: claim, next-unused, remaining,
// claimed-before-read, and their telemetry); this package adds only
// durability. The enrolled references live in a CRC-checked flat snapshot
// (snapshot.go), claims append to a write-ahead log (wal.go) between the
// claim state's check and its mark, and periodic compaction folds the log
// back into the snapshot — so single-use replay protection survives
// restarts and crashes. A sharded Registry (registry.go) scales the scheme
// across a fleet of devices with lazy snapshot loading and an LRU of hot
// stores.
//
// The store is epoch-aware: an enrollment belongs to one device
// reconfiguration epoch (core.Device.SetEpoch), and a store can be
// re-enrolled under a fresh epoch without ever resurrecting a consumed
// seed. The cutover protocol (StageEpoch / StagedEpoch.Commit) is
// crash-safe with the same log-before-acknowledge discipline as claims:
//
//  1. the new epoch's references are measured and written to a staged
//     snapshot file (crp.snap.next), durably, while the old epoch keeps
//     serving claims;
//  2. an epoch-transition record is appended to the WAL — the commit
//     point: once durable, the old epoch is retired forever;
//  3. the staged snapshot is renamed over crp.snap;
//  4. the WAL is reset (the transition and all old-epoch claims are now
//     implied by the snapshot's epoch).
//
// Open replays this protocol's every crash point: a staged snapshot with
// no transition record is discarded (the cutover never committed); a
// transition record whose target epoch is newer than the live snapshot
// completes the rename if the staged file survived, and otherwise opens
// the store RETIRED — all claims fail with ErrEpochRetired (never serving
// an old-epoch seed) until a re-enrollment installs the awaited epoch. A
// live store whose Commit fails past the commit point ends in the same
// state a reopen would find.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pufatt/internal/core"
	"pufatt/internal/crp"
)

// Store file names inside a device directory.
const (
	snapshotFile = "crp.snap"
	walFile      = "crp.wal"
	// stagingFile holds the next epoch's enrollment between StageEpoch and
	// Commit. It is never read as the live snapshot; open-time recovery
	// either installs it (transition committed) or discards it.
	stagingFile = "crp.snap.next"
)

// ErrClosed reports an operation on a closed store (typically one the
// registry evicted; re-fetch through Registry.Handle, which reopens).
var ErrClosed = errors.New("crpstore: store closed")

// ErrEpochRetired reports a claim or reference lookup against a store
// whose epoch was retired by a committed cutover whose new enrollment was
// lost (a crash between the transition record and the snapshot rename).
// No old-epoch seed is ever re-claimable; the store recovers when a
// re-enrollment installs the awaited epoch. It wraps crp.ErrExhausted:
// to the attestation layer a retired store is an empty budget awaiting
// re-enrollment, not a transport fault and not a verdict.
var ErrEpochRetired = fmt.Errorf("crpstore: epoch retired, awaiting re-enrollment: %w", crp.ErrExhausted)

// ErrEpochOrder reports a re-enrollment whose epoch does not advance the
// store's: epochs are monotonic, and re-using one would alias two
// different reference sets under the same (seed, epoch) coordinates.
var ErrEpochOrder = errors.New("crpstore: re-enrollment epoch must advance the store's epoch")

// Options tunes durability and compaction.
type Options struct {
	// NoSync skips the fsync after WAL appends and snapshot writes. The
	// write ordering (log before acknowledge, write-rename for snapshots)
	// is preserved, so the store stays consistent across process crashes;
	// only power-loss durability is traded for throughput.
	NoSync bool
	// CompactEvery folds the WAL into the snapshot automatically once it
	// holds this many claim records (0 = only compact on explicit Compact
	// calls). Compaction bounds both WAL growth and reopen replay time.
	CompactEvery int
	// MaxOpen bounds how many device stores a Registry keeps open at once
	// (0 = DefaultMaxOpen). Least-recently-used stores beyond the bound
	// are closed; their state is durable, so they simply reload on next
	// use.
	MaxOpen int
}

// DefaultOptions returns the production posture: fsync on every claim,
// compaction every 4096 claims, up to 256 resident stores.
func DefaultOptions() Options {
	return Options{CompactEvery: 4096, MaxOpen: 256}
}

// Store is the durable CRP database of one device: a crp.Enrollment and
// its crp.Claims, with every acknowledged claim logged before it takes
// effect. It implements core.ReferenceSource and the claim surface of
// crp.Database (Claim, NextUnused, Remaining). All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	enr        *crp.Enrollment
	claims     *crp.Claims // live claim state (snapshot ∪ WAL ∪ this process)
	wal        *wal
	walRecords int
	// awaiting is the epoch a re-enrollment must install (or exceed) to
	// recover a retired store — one whose epoch-transition record committed
	// but whose new enrollment was lost. It is 0 for a live store.
	awaiting uint32
	closed   bool
}

// Open loads the device store in dir: snapshot first, then epoch-cutover
// recovery, then WAL replay. After Open returns, every claim and every
// epoch transition acknowledged before the last shutdown or crash is in
// force again — in particular, no seed of a retired epoch is claimable.
func Open(dir string, opts Options) (*Store, error) {
	enr, used, err := loadSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	return openWith(dir, enr, used, opts)
}

// lastTransition returns the index of the last epoch-transition record
// (-1 when the WAL holds none).
func lastTransition(recs []WALFrame) int {
	last := -1
	for i, r := range recs {
		if r.Transition {
			last = i
		}
	}
	return last
}

// openWith wires an enrollment and its persisted used flags (nil for a
// fresh enrollment) to its WAL, running the epoch-cutover crash recovery
// described in the package comment.
func openWith(dir string, enr *crp.Enrollment, used []bool, opts Options) (*Store, error) {
	w, recs, err := openWAL(filepath.Join(dir, walFile), !opts.NoSync)
	if err != nil {
		return nil, err
	}
	staging := filepath.Join(dir, stagingFile)
	var awaiting uint32
	last := lastTransition(recs)
	switch {
	case last >= 0 && recs[last].To > enr.Epoch():
		// The cutover committed (the transition record is durable) but the
		// staged snapshot was never renamed into place. If it survived,
		// finish the rename; if not, the old epoch is still retired — the
		// store opens with every claim refused until re-enrollment.
		staged, stagedUsed, serr := loadSnapshot(staging)
		if serr == nil && staged.Epoch() == recs[last].To {
			if err := os.Rename(staging, filepath.Join(dir, snapshotFile)); err != nil {
				w.close()
				return nil, fmt.Errorf("crpstore: completing epoch cutover: %w", err)
			}
			if !opts.NoSync {
				syncDir(dir)
			}
			enr, used = staged, stagedUsed
			epochRecoveries.Inc()
		} else {
			awaiting = recs[last].To
			epochRetiredOpens.Inc()
		}
	default:
		// No committed transition past the live snapshot. A staged file
		// here is an uncommitted cutover: discard it, the old epoch stays
		// live (and its claims stay in force).
		if _, serr := os.Stat(staging); serr == nil {
			_ = os.Remove(staging)
			epochStagingsDiscarded.Inc()
		}
	}

	st := &Store{
		dir:        dir,
		opts:       opts,
		enr:        enr,
		claims:     crp.NewClaims(enr, used),
		wal:        w,
		walRecords: len(recs),
		awaiting:   awaiting,
	}
	if awaiting != 0 {
		st.claims.Retire(ErrEpochRetired)
	} else {
		// Claim replay. Claims logged before the last transition record
		// belong to a retired epoch: they are skipped wholesale (their seeds
		// may not even exist in the live snapshot, and that is not
		// corruption). Claims after it apply iff the live snapshot is the
		// transition's target — the state a crash between the cutover's
		// rename and its WAL reset leaves behind. A claim already marked in
		// the snapshot is legal too: a crash between compaction's snapshot
		// rename and its WAL truncation leaves the record in both places,
		// and replay is idempotent.
		for _, rec := range recs[last+1:] {
			if !rec.Transition && !st.claims.Replay(rec.Seed) {
				w.close()
				return nil, fmt.Errorf("%w: WAL claims unenrolled seed %#x", ErrWALCorrupt, rec.Seed)
			}
		}
	}
	openStores.Add(1)
	return st, nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// create installs a fresh enrollment snapshot in dir and opens it. It
// refuses to overwrite an existing enrollment: re-enrolling a device with
// claims outstanding would resurrect consumed seeds (epoch cutovers go
// through StageEpoch/Commit instead, which retire the old seeds first).
func create(dir string, enr *crp.Enrollment, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("crpstore: %s already holds an enrollment", dir)
	}
	if err := writeSnapshotFile(path, snapshotOf(enr, nil), !opts.NoSync); err != nil {
		return nil, err
	}
	return openWith(dir, enr, nil, opts)
}

// Create installs an enrollment from externally measured reference data
// (see crp.FromRows): refs holds len(seeds)*8 rows in seed-major order,
// each bits wide. The enrollment is installed at epoch 0.
func Create(dir string, chipID, bits int, seeds []uint64, refs [][]uint8, opts Options) (*Store, error) {
	enr, err := crp.FromRows(chipID, bits, 0, seeds, refs)
	if err != nil {
		return nil, err
	}
	return create(dir, enr, opts)
}

// Enroll measures the device's noiseless reference responses for every
// seed (crp.Measure, fanned across workers) and installs them as a durable
// enrollment in dir, stamped with the device's current epoch.
func Enroll(dir string, dev *core.Device, seeds []uint64, workers int, opts Options) (*Store, error) {
	enr, err := crp.Measure(dev, seeds, workers)
	if err != nil {
		return nil, err
	}
	return create(dir, enr, opts)
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// enrollment returns the live enrollment (swapped by epoch cutovers).
func (st *Store) enrollment() *crp.Enrollment {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.enr
}

// ChipID returns the chip this store was enrolled for.
func (st *Store) ChipID() int { return st.enrollment().ChipID() }

// ResponseBits implements core.ReferenceSource.
func (st *Store) ResponseBits() int { return st.enrollment().ResponseBits() }

// Len returns the number of enrolled seeds.
func (st *Store) Len() int { return st.enrollment().Len() }

// Epoch returns the device reconfiguration epoch of the live enrollment.
func (st *Store) Epoch() uint32 { return st.enrollment().Epoch() }

// Retired reports whether the store's epoch was retired with no live
// successor (see ErrEpochRetired).
func (st *Store) Retired() bool {
	return st.AwaitingEpoch() != 0
}

// AwaitingEpoch returns the committed cutover target a retired store is
// waiting on (0 when the store is live).
func (st *Store) AwaitingEpoch() uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.awaiting
}

// ReferenceResponse implements core.ReferenceSource. As with crp.Database,
// the seed must have been claimed first, so a protocol bug cannot silently
// bypass replay protection.
func (st *Store) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrClosed
	}
	return st.claims.Reference(seed, j)
}

// Claim durably marks a seed as consumed: the claim record is on disk (in
// its WAL) before Claim acknowledges, so the seed stays rejected as a
// replay after any restart. Unknown and already-used seeds fail with the
// crp package's sentinel errors.
func (st *Store) Claim(seed uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.claims.Claim(seed, st.wal.append); err != nil {
		return err
	}
	st.logged()
	return nil
}

// logged accounts one acknowledged claim record. The claim state's log
// hook (the WAL append) ran before the mark: if the append fails (or the
// process dies inside it) the caller never saw the claim succeed, and a
// replayed torn tail drops it — the failure mode errs toward a seed being
// claimed on disk but unacknowledged, never the reverse.
func (st *Store) logged() {
	st.walRecords++
	if st.opts.CompactEvery > 0 && st.walRecords >= st.opts.CompactEvery {
		// The claim itself is already durable and acknowledged; a failed
		// fold only defers compaction to the next trigger.
		_ = st.compactLocked()
	}
}

// NextUnused durably claims and returns the next unused seed in enrollment
// order. Seeds consumed by direct Claim calls are skipped without counting
// replay telemetry.
func (st *Store) NextUnused() (uint64, error) {
	seed, _, err := st.NextUnusedWithEpoch()
	return seed, err
}

// NextUnusedWithEpoch is NextUnused returning the claimed seed's epoch
// under the same lock acquisition — the atomic (seed, epoch) pair an
// epoch-negotiating verifier binds into one challenge, so a concurrent
// cutover can never split a session across epochs.
func (st *Store) NextUnusedWithEpoch() (uint64, uint32, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, 0, ErrClosed
	}
	seed, err := st.claims.Next(st.wal.append)
	if err == nil {
		st.logged()
	}
	return seed, st.enr.Epoch(), err
}

// Remaining returns how many authentications the store still supports
// (O(1): maintained by the claim paths; 0 for a retired store).
func (st *Store) Remaining() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.claims.Remaining()
}

// WALRecords returns the number of records currently in the WAL — the
// replay work a reopen would do before the next compaction.
func (st *Store) WALRecords() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.walRecords
}

// Compact folds the WAL into a fresh snapshot (atomically installed via
// write-and-rename) and empties the log. A crash at any point leaves a
// consistent store: either the old snapshot plus the full WAL, or the new
// snapshot plus a WAL whose replay is idempotent.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.awaiting != 0 {
		// Nothing to fold: a retired store's claim state is terminal and
		// fully described by the WAL's transition record, which must
		// survive until re-enrollment.
		return nil
	}
	return st.compactLocked()
}

func (st *Store) compactLocked() error {
	snap := snapshotOf(st.enr, st.claims.Used())
	if err := writeSnapshotFile(filepath.Join(st.dir, snapshotFile), snap, !st.opts.NoSync); err != nil {
		return err
	}
	// Only after the snapshot rename is durable may the WAL be emptied;
	// the reverse order could lose claims.
	if err := st.wal.reset(); err != nil {
		return err
	}
	st.walRecords = 0
	compactions.Inc()
	return nil
}

// StagedEpoch is a measured-but-uncommitted re-enrollment: the next
// epoch's references, durable in the staging file but not yet live.
// Commit performs the cutover; Discard abandons it. Until Commit's
// transition record is on disk, the old epoch keeps serving claims and a
// crash changes nothing.
type StagedEpoch struct {
	st  *Store
	enr *crp.Enrollment
}

// Epoch returns the staged enrollment's epoch.
func (se *StagedEpoch) Epoch() uint32 { return se.enr.Epoch() }

// Len returns the number of staged seeds.
func (se *StagedEpoch) Len() int { return se.enr.Len() }

// StageEpoch measures a re-enrollment for the device's CURRENT epoch —
// the caller reconfigures the device (core.Device.SetEpoch) first — and
// writes it durably to the staging file without touching the live
// enrollment. The staged epoch must advance the store's (and reach the
// awaited epoch when the store is retired). Claims against the old epoch
// proceed concurrently; the budget keeps draining while the new epoch is
// prepared.
func (st *Store) StageEpoch(dev *core.Device, seeds []uint64, workers int) (*StagedEpoch, error) {
	epoch := dev.Epoch()
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, ErrClosed
	}
	err := st.epochOrderLocked(epoch)
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}

	enr, err := crp.Measure(dev, seeds, workers)
	if err != nil {
		return nil, err
	}
	if err := writeSnapshotFile(filepath.Join(st.dir, stagingFile), snapshotOf(enr, nil), !st.opts.NoSync); err != nil {
		return nil, err
	}
	epochStagings.Inc()
	return &StagedEpoch{st: st, enr: enr}, nil
}

// epochOrderLocked refuses an epoch that does not advance the store's, or
// that stops short of a retired store's awaited epoch.
func (st *Store) epochOrderLocked(epoch uint32) error {
	cur := st.enr.Epoch()
	switch {
	case st.awaiting != 0 && epoch < st.awaiting:
		return fmt.Errorf("%w: staged %d, store retired at %d awaiting %d",
			ErrEpochOrder, epoch, cur, st.awaiting)
	case epoch <= cur:
		return fmt.Errorf("%w: staged %d, store at %d", ErrEpochOrder, epoch, cur)
	}
	return nil
}

// Commit performs the epoch cutover: transition record (the durable
// commit point — from here the old epoch is retired), snapshot rename,
// WAL reset, in-memory swap. Claims are serialised against the cutover by
// the store lock, so every claim lands entirely in one epoch. Once the
// transition record is durable the old epoch is never served again: a
// failed rename leaves the store retired, awaiting the staged epoch
// (exactly what a reopen finds), and a failed WAL reset after a good
// rename still installs the new epoch.
func (se *StagedEpoch) Commit() error {
	st := se.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	next := se.enr.Epoch()
	if err := st.epochOrderLocked(next); err != nil {
		return err
	}
	// Log before acknowledge: the transition record makes the retirement
	// of the old epoch durable before anything else changes.
	if err := st.wal.appendTransition(st.enr.Epoch(), next); err != nil {
		return err
	}
	st.walRecords++
	if err := os.Rename(filepath.Join(st.dir, stagingFile), filepath.Join(st.dir, snapshotFile)); err != nil {
		st.claims.Retire(ErrEpochRetired)
		st.awaiting = next
		return fmt.Errorf("crpstore: installing epoch snapshot: %w", err)
	}
	if !st.opts.NoSync {
		syncDir(st.dir)
	}
	st.enr, st.claims, st.awaiting = se.enr, crp.NewClaims(se.enr, nil), 0
	epochTransitions.Inc()
	// The new epoch is live. A failed reset leaves the old claims and the
	// transition in the WAL, which replay skips as retired-epoch history;
	// the next compaction empties it, as after any failed fold.
	if st.wal.reset() == nil {
		st.walRecords = 0
	}
	return nil
}

// Discard abandons a staged re-enrollment, removing its staging file. The
// live enrollment is untouched.
func (se *StagedEpoch) Discard() error {
	err := os.Remove(filepath.Join(se.st.dir, stagingFile))
	if err == nil || errors.Is(err, os.ErrNotExist) {
		epochStagingsDiscarded.Inc()
		return nil
	}
	return err
}

// Reenroll is StageEpoch + Commit in one call: measure the device's
// current (fresh) epoch and cut the store over to it. Callers that need
// to coordinate the cutover with live traffic (attest.Reenroller) use the
// two-step form and commit inside their own barrier.
func (st *Store) Reenroll(dev *core.Device, seeds []uint64, workers int) error {
	staged, err := st.StageEpoch(dev, seeds, workers)
	if err != nil {
		return err
	}
	return staged.Commit()
}

// Close releases the store's WAL handle. Claim state is durable; reopening
// with Open restores it.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	openStores.Add(-1)
	return st.wal.close()
}
