package sim

import (
	"sync"

	"pufatt/internal/delay"
)

// Pool hands out single-lane Engines over one compiled program and delay
// table for parallel batch evaluation. Engines are built on demand (shared
// immutable program, private scratch) and returned to a free list on Put, so
// a steady-state batch workload allocates nothing per batch: worker counts
// settle after the first batch and every later Get is a free-list pop.
//
// Unlike sync.Pool the free list is never dropped by the garbage collector,
// which keeps Get/Put deterministic and the engine count observable
// (telemetry gauge sim_pool_idle_engines).
type Pool struct {
	mu     sync.Mutex
	prog   *Program
	delays delay.Table
	free   []*Engine
}

// NewPool returns a pool of engines over the program and delay table.
func NewPool(p *Program, delays delay.Table) *Pool {
	p.checkDelays(delays)
	return &Pool{prog: p, delays: delays}
}

// Get returns an engine, reusing a pooled one when one is free. The caller
// owns it until Put. Engines keep whatever delay table they last ran with;
// callers that sweep operating corners must SetDelays after Get.
func (p *Pool) Get() *Engine {
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
	return NewEngine(p.prog, delays)
}

// Put returns an engine to the free list for reuse. Only engines obtained
// from this pool (all sharing the pool's netlist) may be returned.
func (p *Pool) Put(e *Engine) {
	if e == nil {
		return
	}
	if e.prog.nl != p.prog.nl {
		panic("sim: Put of an engine from a different netlist")
	}
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
	poolIdle.Add(1)
}

// SetDelays replaces the delay table handed to engines built from now on
// and on every currently pooled engine (engines checked out keep their old
// table until their next SetDelays).
func (p *Pool) SetDelays(delays delay.Table) {
	p.prog.checkDelays(delays)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delays = delays
	for _, e := range p.free {
		e.SetDelays(delays)
	}
}

// Idle returns how many engines are currently pooled.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// GatesPerRun returns the per-Run gate count of the pool's engines.
func (p *Pool) GatesPerRun() int { return p.prog.GatesPerRun() }
