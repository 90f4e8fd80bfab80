package crp

import (
	"errors"
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/obfuscate"
)

// Enrollment is one device's measured CRP material: the seed order and
// refsPer reference raw responses per seed, captured in the trusted
// facility before deployment. The references live in one flat matrix
// (row k = seed k/refsPer, expansion k%refsPer, bits bytes each) — the
// shape the batch evaluator writes and the durable snapshot stores — and
// the seed→index map is built once, at construction.
//
// An Enrollment is immutable, so it needs no lock and any number of claim
// states (a Database, a durable store, a cluster's replicas) may share it
// by pointer. The mutable "which seeds are burned" half lives in Claims.
type Enrollment struct {
	chipID  int
	bits    int
	refsPer int
	epoch   uint32 // the device reconfiguration epoch the references were measured at
	seeds   []uint64
	index   map[uint64]int
	flat    []uint8
}

// Measure measures the device's noiseless reference responses for every
// seed, stamped with the device's current epoch. Enrollment happens in the
// trusted facility before deployment, so it uses the device's noiseless
// (averaged) behaviour. The len(seeds)×8 expanded challenges fan across a
// fresh batch evaluator (workers ≤ 0 means GOMAXPROCS) whose responses
// land directly in the flat matrix; the evaluator is dropped afterwards,
// so a long-lived device carries no enrollment engine.
func Measure(dev *core.Device, seeds []uint64, workers int) (*Enrollment, error) {
	design := dev.Design()
	bits, refsPer := design.ResponseBits(), obfuscate.ResponsesPerOutput
	rows := len(seeds) * refsPer
	challenges := core.ChallengeMatrix(design, rows)
	flat := make([]uint8, rows*bits)
	dst := make([][]uint8, rows)
	for k := range dst {
		design.ExpandChallengeInto(challenges[k], seeds[k/refsPer], k%refsPer)
		dst[k] = flat[k*bits : (k+1)*bits : (k+1)*bits]
	}
	core.NewBatchEvaluator(dev).NoiselessResponses(challenges, dst, workers)
	return FromMatrix(dev.ChipID(), bits, refsPer, dev.Epoch(), append([]uint64(nil), seeds...), flat)
}

// FromRows builds an enrollment from externally measured reference data
// (an FPGA collection run, an import from another verifier): refs holds
// len(seeds)*8 rows in seed-major order, each bits wide. Both slices are
// copied.
func FromRows(chipID, bits int, epoch uint32, seeds []uint64, refs [][]uint8) (*Enrollment, error) {
	refsPer := obfuscate.ResponsesPerOutput
	if len(refs) != len(seeds)*refsPer {
		return nil, fmt.Errorf("crp: %d reference rows for %d seeds (need %d per seed)",
			len(refs), len(seeds), refsPer)
	}
	flat := make([]uint8, len(refs)*bits)
	for k, row := range refs {
		if len(row) != bits {
			return nil, fmt.Errorf("crp: reference row %d is %d bits, want %d", k, len(row), bits)
		}
		copy(flat[k*bits:], row)
	}
	return FromMatrix(chipID, bits, refsPer, epoch, append([]uint64(nil), seeds...), flat)
}

// FromMatrix adopts an already flat reference matrix, as a decoder of a
// stored enrollment holds it: len(seeds)*refsPer rows of bits bytes. It
// takes ownership of both slices, and refuses an empty enrollment and a
// duplicate seed.
func FromMatrix(chipID, bits, refsPer int, epoch uint32, seeds []uint64, flat []uint8) (*Enrollment, error) {
	if len(seeds) == 0 {
		return nil, errors.New("crp: enrolling zero seeds")
	}
	if len(flat) != len(seeds)*refsPer*bits {
		return nil, fmt.Errorf("crp: %d reference bytes for %d seeds × %d rows × %d bits",
			len(flat), len(seeds), refsPer, bits)
	}
	e := &Enrollment{chipID: chipID, bits: bits, refsPer: refsPer, epoch: epoch,
		seeds: seeds, index: make(map[uint64]int, len(seeds)), flat: flat}
	for i, seed := range seeds {
		if _, dup := e.index[seed]; dup {
			return nil, fmt.Errorf("crp: duplicate enrollment seed %#x", seed)
		}
		e.index[seed] = i
	}
	return e, nil
}

// ChipID returns the chip the enrollment was measured for.
func (e *Enrollment) ChipID() int { return e.chipID }

// Epoch returns the device reconfiguration epoch the references belong to.
func (e *Enrollment) Epoch() uint32 { return e.epoch }

// ResponseBits returns the raw-response width of every reference row.
func (e *Enrollment) ResponseBits() int { return e.bits }

// RefsPer returns the number of reference rows per seed.
func (e *Enrollment) RefsPer() int { return e.refsPer }

// Len returns the number of enrolled seeds.
func (e *Enrollment) Len() int { return len(e.seeds) }

// Seeds returns the seeds in enrollment order. The slice is shared and
// must not be modified.
func (e *Enrollment) Seeds() []uint64 { return e.seeds }

// Matrix returns the flat reference matrix. It is shared and must not be
// modified.
func (e *Enrollment) Matrix() []uint8 { return e.flat }

// Reference is the claimed-before-read gate every claim state serves its
// references through: it returns expansion j of seed's references only if
// claimed reports the seed's enrollment index as consumed, so a protocol
// bug cannot silently bypass replay protection.
func (e *Enrollment) Reference(seed uint64, j int, claimed func(i int) bool) ([]uint8, error) {
	i, ok := e.index[seed]
	if !ok {
		return nil, ErrUnknownSeed
	}
	if !claimed(i) {
		return nil, fmt.Errorf("crp: seed %#x not claimed before use", seed)
	}
	if j < 0 || j >= e.refsPer {
		return nil, fmt.Errorf("crp: reference index %d out of range", j)
	}
	referenceLookups.Inc()
	k := i*e.refsPer + j
	return e.flat[k*e.bits : (k+1)*e.bits : (k+1)*e.bits], nil
}
