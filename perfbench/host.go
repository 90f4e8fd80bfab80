package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
)

// The benchmark shares its host's cores with other virtual machines. The
// hypervisor can take a vCPU away for milliseconds at a time, and how
// much it takes (its steal time) changes several-fold from minute to
// minute. Compute is therefore timed in CPU time, which excludes steal,
// and a stretch of wall time that keeps every vCPU busy has the steal it
// suffered taken out.

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHz is the unit of /proc/stat's counters on Linux.
const userHz = 100

// hostSteal returns the time the hypervisor has taken from this machine's
// vCPUs since boot, summed over the vCPUs; 0 where /proc/stat has no
// steal column.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHz
}

// stealClock times a stretch of wall time minus the steal its vCPUs
// suffered. The steal is shared out evenly over the vCPUs: exact while the
// process keeps every vCPU busy, an undercount while some sit idle, as a
// halted vCPU suffers no steal.
type stealClock struct {
	start time.Time
	steal time.Duration
	vcpus int
}

func startStealClock(vcpus int) stealClock {
	return stealClock{start: time.Now(), steal: hostSteal(), vcpus: vcpus}
}

// elapsed returns the wall time since the clock started and the part of
// it the host took.
func (c stealClock) elapsed() (wall, stolen time.Duration) {
	wall = time.Since(c.start)
	stolen = min(wall, (hostSteal()-c.steal)/time.Duration(max(c.vcpus, 1)))
	return wall, stolen
}
