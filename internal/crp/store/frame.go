package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// This file is the WAL frame format's public face. The replicated claim
// log (internal/attest/cluster) streams the store's durable claim records
// between verifier shards, so the 16-byte frame defined in wal.go is a
// wire format as well as a disk format. The WAL itself encodes and decodes
// through the functions here, so both sides share one implementation: a
// frame a follower accepts is bit-for-bit a frame openWAL would replay, and
// the store's frame-surgery tests cover the replication path for free.

// WALFrameSize is the fixed size of every claim-log frame.
const WALFrameSize = walRecordSize

// ErrBadWALFrame reports a frame whose size, magic, or CRC is invalid —
// wire damage (or surgery) the claim log must refuse to apply.
var ErrBadWALFrame = errors.New("crpstore: invalid WAL frame")

// WALFrame is one decoded claim-log record: a seed claim
// (Transition == false) or an epoch transition (Transition == true).
type WALFrame struct {
	Transition bool
	Seed       uint64 // claim frames
	From, To   uint32 // transition frames
}

// ClaimFrame encodes a seed claim as a durable/wire WAL frame.
func ClaimFrame(seed uint64) []byte {
	rec := make([]byte, walRecordSize)
	binary.LittleEndian.PutUint32(rec[0:4], walMagic)
	binary.LittleEndian.PutUint64(rec[4:12], seed)
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(rec[0:12]))
	return rec
}

// TransitionFrame encodes an epoch transition (the cutover commit point)
// as a durable/wire WAL frame.
func TransitionFrame(from, to uint32) []byte {
	rec := make([]byte, walRecordSize)
	binary.LittleEndian.PutUint32(rec[0:4], walEpochMagic)
	binary.LittleEndian.PutUint32(rec[4:8], from)
	binary.LittleEndian.PutUint32(rec[8:12], to)
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(rec[0:12]))
	return rec
}

// DecodeWALFrame validates and decodes one frame. Anything openWAL would
// reject — short, bad magic, CRC mismatch — returns ErrBadWALFrame.
func DecodeWALFrame(b []byte) (WALFrame, error) {
	if len(b) != walRecordSize {
		return WALFrame{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadWALFrame, len(b), walRecordSize)
	}
	magic := binary.LittleEndian.Uint32(b[0:4])
	if magic != walMagic && magic != walEpochMagic {
		return WALFrame{}, fmt.Errorf("%w: unknown magic %#x", ErrBadWALFrame, magic)
	}
	if got, want := binary.LittleEndian.Uint32(b[12:16]), crc32.ChecksumIEEE(b[0:12]); got != want {
		return WALFrame{}, fmt.Errorf("%w: CRC %#x, want %#x", ErrBadWALFrame, got, want)
	}
	if magic == walEpochMagic {
		return WALFrame{
			Transition: true,
			From:       binary.LittleEndian.Uint32(b[4:8]),
			To:         binary.LittleEndian.Uint32(b[8:12]),
		}, nil
	}
	return WALFrame{Seed: binary.LittleEndian.Uint64(b[4:12])}, nil
}
