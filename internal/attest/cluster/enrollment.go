package cluster

import (
	"pufatt/internal/core"
	"pufatt/internal/crp"
)

// Enrollment is one device's measured CRP material: the crp package's
// immutable enrollment. Every replica of a device shares one Enrollment by
// pointer, which is what makes replication cheap: only the claim log —
// the mutable "which seeds are burned" half — streams between shards.
type Enrollment = crp.Enrollment

// NewEnrollment measures the device's noiseless reference responses for
// every seed (crp.Measure on one worker: fleet set-up already fans devices
// out across goroutines).
func NewEnrollment(dev *core.Device, seeds []uint64) (*Enrollment, error) {
	return crp.Measure(dev, seeds, 1)
}
