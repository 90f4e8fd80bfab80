package sim

import (
	"sync"

	"pufatt/internal/delay"
)

// SlicedPool is Pool's bitsliced sibling: it hands out SlicedEngines over
// one compiled program and delay table for parallel block evaluation, with
// the same never-dropped free list and telemetry.
type SlicedPool struct {
	mu     sync.Mutex
	prog   *Program
	delays delay.Table
	free   []*SlicedEngine
}

// NewSlicedPool returns a pool of bitsliced engines over the program and
// delay table.
func NewSlicedPool(p *Program, delays delay.Table) *SlicedPool {
	p.checkDelays(delays)
	return &SlicedPool{prog: p, delays: delays}
}

// Get returns an engine, reusing a pooled one when one is free. The caller
// owns it until Put. Engines keep whatever delay table they last ran with;
// callers that sweep operating corners must SetDelays after Get.
func (p *SlicedPool) Get() *SlicedEngine {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		poolHits.Inc()
		poolIdle.Add(-1)
		return e
	}
	delays := p.delays
	p.mu.Unlock()
	engineClones.Inc()
	return NewSlicedEngine(p.prog, delays)
}

// Put returns an engine to the free list for reuse. Only engines obtained
// from this pool (all sharing the pool's netlist) may be returned.
func (p *SlicedPool) Put(e *SlicedEngine) {
	if e == nil {
		return
	}
	if e.prog.nl != p.prog.nl {
		panic("sim: Put of a sliced engine from a different netlist")
	}
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
	poolIdle.Add(1)
}

// SetDelays replaces the delay table handed to engines built from now on
// and on every currently pooled engine (engines checked out keep their old
// table until their next SetDelays).
func (p *SlicedPool) SetDelays(delays delay.Table) {
	p.prog.checkDelays(delays)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delays = delays
	for _, e := range p.free {
		e.SetDelays(delays)
	}
}

// Idle returns how many engines are currently pooled.
func (p *SlicedPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// GatesPerRun returns the per-lane gate count of the pool's engines.
func (p *SlicedPool) GatesPerRun() int { return p.prog.GatesPerRun() }

// Fused reports whether the pool's engines run the fused ripple-carry
// program.
func (p *SlicedPool) Fused() bool { return p.prog.Fused() }
