// Package crp implements the challenge/response-pair database verification
// path of Section 2: the verifier records reference responses before the
// device is deployed and consumes them one challenge seed per
// authentication.
//
// The paper names the two drawbacks this repository's experiments quantify
// against the emulation approach: the database's storage grows linearly
// with the number of supported authentications, and — because re-using a
// CRP would enable replay — each seed is single-use, bounding the device's
// lifetime authentication count by the enrollment effort.
package crp

import (
	"errors"
	"sync"

	"pufatt/internal/core"
)

// Errors returned by database lookups.
var (
	ErrUnknownSeed = errors.New("crp: challenge seed not enrolled")
	ErrSeedUsed    = errors.New("crp: challenge seed already consumed (replay protection)")
	ErrExhausted   = errors.New("crp: database exhausted")
)

// Database is an enrolled CRP database for one device: an Enrollment plus
// its claim state. It implements core.ReferenceSource, so a
// core.VerifierPipeline can run off it directly.
//
// A Database is safe for concurrent use: Claim is the replay-protection
// boundary, and a fleet sweep claims seeds from many goroutines at once, so
// every method that touches claim state serialises on one mutex. The
// enrollment itself is immutable and needs no lock.
type Database struct {
	enr *Enrollment

	mu     sync.Mutex
	claims *Claims
}

// Enroll measures the device's noiseless reference responses for every
// challenge seed (see Measure) and returns them as a fresh database.
func Enroll(dev *core.Device, seeds []uint64) (*Database, error) {
	enr, err := Measure(dev, seeds, 1)
	if err != nil {
		return nil, err
	}
	return &Database{enr: enr, claims: NewClaims(enr, nil)}, nil
}

// ChipID returns the chip this database was enrolled for.
func (db *Database) ChipID() int { return db.enr.ChipID() }

// Epoch returns the device reconfiguration epoch the database was enrolled
// at. Every reference in a Database belongs to one epoch; re-enrollment
// under a new epoch builds a new Database.
func (db *Database) Epoch() uint32 { return db.enr.Epoch() }

// NextUnusedWithEpoch claims the next unused seed and reports the epoch it
// belongs to, atomically — the pair an epoch-negotiating verifier binds
// into one challenge.
func (db *Database) NextUnusedWithEpoch() (uint64, uint32, error) {
	seed, err := db.NextUnused()
	return seed, db.enr.Epoch(), err
}

// ResponseBits implements core.ReferenceSource.
func (db *Database) ResponseBits() int { return db.enr.ResponseBits() }

// ReferenceResponse implements core.ReferenceSource. The seed must have
// been claimed (Claim or NextUnused) first; unclaimed seeds are rejected so
// that a protocol bug cannot silently bypass replay protection.
func (db *Database) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.claims.Reference(seed, j)
}

// Claim marks a seed as consumed. It fails on unknown or already-used
// seeds; a seed can never be claimed twice, even under concurrent claims.
func (db *Database) Claim(seed uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.claims.Claim(seed, nil)
}

// NextUnused claims and returns the next unused seed in enrollment order,
// skipping seeds consumed by direct Claim calls.
func (db *Database) NextUnused() (uint64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.claims.Next(nil)
}

// Remaining returns how many authentications the database still supports
// (O(1): the claim paths keep the count).
func (db *Database) Remaining() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.claims.Remaining()
}

// Len returns the number of enrolled seeds.
func (db *Database) Len() int { return db.enr.Len() }

// StorageBytes returns the approximate storage the database requires: per
// seed, 8 bytes of seed plus eight reference responses of ResponseBits each.
// This is the scalability cost the emulation approach avoids.
func (db *Database) StorageBytes() int {
	perSeed := 8 + db.enr.RefsPer()*((db.enr.ResponseBits()+7)/8)
	return perSeed * db.enr.Len()
}
