package store

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// The claim WAL is the store's crash-safety mechanism for the mutable half
// of its state. The snapshot holds the enrolled references (large, mostly
// immutable); the WAL holds the claims made since the last compaction
// (small, hot). A claim is acknowledged only after its record is on disk,
// so replay protection survives any crash: on open, the WAL is replayed on
// top of the snapshot's used-bitmap.
//
// Each record is a fixed 16-byte frame. Two record kinds share the frame,
// distinguished by magic:
//
//	claim ("CRPW"):
//	  offset 0  magic uint32 LE (walMagic)
//	  offset 4  seed  uint64 LE
//	  offset 12 crc32 uint32 LE (IEEE, over bytes 0..11)
//
//	epoch transition ("CRPE"):
//	  offset 0  magic uint32 LE (walEpochMagic)
//	  offset 4  from  uint32 LE (retired epoch)
//	  offset 8  to    uint32 LE (new epoch)
//	  offset 12 crc32 uint32 LE (IEEE, over bytes 0..11)
//
// The transition record is the commit point of an epoch cutover: once it is
// durable, the old epoch is retired — its seeds can never be claimed again,
// whatever else the crash interrupted (store.go's open-time recovery
// enforces this). Log-before-acknowledge applies to transitions exactly as
// it does to claims.
//
// Fixed-size CRC-framed records make the torn-write story simple: a crash
// mid-append leaves a short or CRC-failing frame at the tail, which open
// detects, truncates, and continues past — the interrupted claim was never
// acknowledged, so dropping it is correct. An invalid frame *followed by
// more data* cannot be a torn append and is reported as corruption.

const (
	walMagic      = 0x57505243 // "CRPW"
	walEpochMagic = 0x45505243 // "CRPE"
	walRecordSize = 16
)

// ErrWALCorrupt reports an invalid record in the interior of the WAL —
// damage no torn final append can explain.
var ErrWALCorrupt = errors.New("crpstore: claim WAL corrupted")

// wal is an append-only claim log over one file.
type wal struct {
	f    *os.File
	sync bool // fsync after every append (durability vs throughput)
}

// openWAL opens (creating if absent) the claim log, validates it, and
// returns every durable record in append order. A torn tail is truncated
// away; interior corruption is an error.
func openWAL(path string, sync bool) (*wal, []WALFrame, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("crpstore: opening claim WAL: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("crpstore: reading claim WAL: %w", err)
	}
	var recs []WALFrame
	valid := 0
	for valid+walRecordSize <= len(data) {
		rec, err := DecodeWALFrame(data[valid : valid+walRecordSize])
		if err != nil {
			break
		}
		recs = append(recs, rec)
		valid += walRecordSize
	}
	if tail := len(data) - valid; tail > walRecordSize {
		// More than one frame's worth of unparseable bytes: not a torn
		// append but real damage. Refuse to guess.
		f.Close()
		return nil, nil, fmt.Errorf("%w: invalid record at offset %d with %d bytes following",
			ErrWALCorrupt, valid, tail)
	} else if tail > 0 {
		walTornTails.Inc()
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("crpstore: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	walReplayedRecords.Add(uint64(len(recs)))
	return &wal{f: f, sync: sync}, recs, nil
}

// appendRecord writes one 16-byte frame. The record is on disk (and, in
// sync mode, fsynced) before appendRecord returns; only then may the
// operation it logs be acknowledged.
func (w *wal) appendRecord(rec []byte, what string) error {
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("crpstore: appending %s: %w", what, err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("crpstore: syncing claim WAL: %w", err)
		}
	}
	walAppends.Inc()
	return nil
}

// append logs one claim.
func (w *wal) append(seed uint64) error { return w.appendRecord(ClaimFrame(seed), "claim") }

// appendTransition logs one epoch transition — the durable commit point of
// a cutover. From the moment this record is on disk, epoch `from` is
// retired and none of its seeds may ever be claimed again.
func (w *wal) appendTransition(from, to uint32) error {
	return w.appendRecord(TransitionFrame(from, to), "epoch transition")
}

// reset empties the log after its claims have been folded into a snapshot.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("crpstore: truncating claim WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }
