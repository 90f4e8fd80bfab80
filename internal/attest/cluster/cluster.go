package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pufatt/internal/attest"
	"pufatt/internal/crp/store"
)

// ErrShardDown reports an operation against a shard the cluster has
// marked dead.
var ErrShardDown = errors.New("cluster: shard down")

// Config sizes a verifier cluster.
type Config struct {
	// Shards names the verifier shards (unique, non-empty).
	Shards []string
	// VNodes is the virtual-node count per shard (<=0 = DefaultVNodes).
	VNodes int
	// Replicas is each device's replication factor, clamped to the shard
	// count (<=0 = 3). The ring's first Replicas distinct successors form
	// the device's replica set; the first is its initial leader.
	Replicas int
	// MaxInFlight bounds concurrently admitted sessions per shard
	// (<=0 = 32).
	MaxInFlight int
	// MaxQueue bounds sessions waiting behind a full shard (<=0 = no
	// queue: reject immediately).
	MaxQueue int
	// AutoFailover lets the serving path promote over a dead leader
	// (still gated fail-closed on the high-water mark). Without it, a
	// dead leader is an operator problem (explicit Promote).
	AutoFailover bool
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Replicas > len(c.Shards) {
		c.Replicas = len(c.Shards)
	}
	return c
}

// Shard is one verifier shard: a name, a liveness bit, and an admission
// gate. (Shards here are logical — the replication and routing layers —
// not separate processes; the transport below each session is whatever
// agent the device was bound with.)
type Shard struct {
	ID    string
	alive atomic.Bool
	adm   *Admission
}

// Alive reports the shard's liveness.
func (s *Shard) Alive() bool { return s.alive.Load() }

// Admission returns the shard's admission gate.
func (s *Shard) Admission() *Admission { return s.adm }

// binding is a device's session endpoint: verifier + prover agent + link.
// Verifier session state is not concurrency-safe, so a mutex serialises
// sessions per device.
type binding struct {
	mu       sync.Mutex
	verifier *attest.Verifier
	agent    attest.ProverAgent
	link     attest.Link
}

// Cluster is the distributed verifier tier over a fixed shard topology.
type Cluster struct {
	cfg    Config
	ring   *Ring
	shards map[string]*Shard
	order  []string

	// met and tel are the observability bindings: the metric set and the
	// attestation telemetry bundle (tracer, history, alerts) the cluster
	// records into. Defaults are the process-wide instruments; tests and
	// multi-cluster processes rebind with SetTelemetry.
	met *Metrics
	tel *attest.Telemetry

	// prober is the synthetic canary attached with NewProber, so the admin
	// surface can serve /probes without threading the prober around.
	prober atomic.Pointer[Prober]

	mu       sync.Mutex
	groups   map[int]*Group
	bindings map[int]*binding
}

// New builds a cluster from the configuration. Every shard starts alive.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     ring,
		shards:   make(map[string]*Shard, len(cfg.Shards)),
		order:    ring.Shards(),
		met:      defaultMetrics,
		tel:      attest.Metrics(),
		groups:   make(map[int]*Group),
		bindings: make(map[int]*binding),
	}
	for _, id := range c.order {
		sh := &Shard{ID: id, adm: NewAdmission(id, cfg.MaxInFlight, cfg.MaxQueue)}
		sh.alive.Store(true)
		c.shards[id] = sh
	}
	return c, nil
}

// SetTelemetry rebinds the cluster — and every shard's admission gate — to
// an explicit attestation telemetry bundle: sessions, spans, and cluster
// metrics all record against t's tracer and registry. Call before serving
// traffic; tests use it to observe the cluster with exact counters and an
// injected clock.
func (c *Cluster) SetTelemetry(t *attest.Telemetry) {
	c.met = NewMetrics(t.Registry)
	c.tel = t
	for _, sh := range c.shards {
		sh.adm.met = c.met
	}
}

// Telemetry returns the attestation telemetry bundle the cluster records
// into.
func (c *Cluster) Telemetry() *attest.Telemetry { return c.tel }

// Metrics returns the cluster's metric set.
func (c *Cluster) Metrics() *Metrics { return c.met }

// Ring returns the cluster's placement ring.
func (c *Cluster) Ring() *Ring { return c.ring }

// Shard returns the named shard (nil if unknown).
func (c *Cluster) Shard(id string) *Shard { return c.shards[id] }

func (c *Cluster) shardAlive(id string) bool {
	sh := c.shards[id]
	return sh != nil && sh.alive.Load()
}

// Kill marks a shard dead: its admission gate refuses nothing (requests
// are re-routed before admission), its follower logs stop receiving
// frames, and any group it led fails over per Config.AutoFailover. The
// shard's logs are retained — a revived shard rejoins exactly as stale as
// its downtime left it, which is what the promotion gate is for.
func (c *Cluster) Kill(id string) error {
	sh := c.shards[id]
	if sh == nil {
		return fmt.Errorf("cluster: unknown shard %q", id)
	}
	sh.alive.Store(false)
	return nil
}

// Revive marks a dead shard live again. Its claim logs are whatever they
// were at kill time: promotion of a revived-but-stale replica fails closed
// (ErrStaleReplica) until the next claim cycle, when the leader streams it
// the frames it missed and it becomes promotable again.
func (c *Cluster) Revive(id string) error {
	sh := c.shards[id]
	if sh == nil {
		return fmt.Errorf("cluster: unknown shard %q", id)
	}
	sh.alive.Store(true)
	return nil
}

// Enroll installs a device's measured enrollment, placing its replica set
// on the ring and creating one claim log per replica. The returned Group
// is the device's seed budget and reference source.
func (c *Cluster) Enroll(enr *Enrollment) (*Group, error) {
	id := enr.ChipID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.groups[id]; dup {
		return nil, fmt.Errorf("cluster: device %d already enrolled", id)
	}
	replicas := c.ring.RouteN(DeviceKey(id), c.cfg.Replicas)
	g := &Group{
		c:        c,
		device:   id,
		enr:      enr,
		replicas: replicas,
		logs:     make(map[string]*deviceLog, len(replicas)),
		acked:    make(map[string]uint64, len(replicas)),
	}
	for _, sid := range replicas {
		g.logs[sid] = newDeviceLog(enr.Epoch())
	}
	c.groups[id] = g
	return g, nil
}

// Group returns an enrolled device's replication group (nil if unknown).
func (c *Cluster) Group(id int) *Group {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groups[id]
}

// Bind attaches a device's session endpoint: the verifier (whose Seeds
// must be the device's Group for claims to replicate — Bind wires it if
// unset) and the prover agent, typically wrapped in a FaultyLink.
func (c *Cluster) Bind(id int, v *attest.Verifier, agent attest.ProverAgent, link attest.Link) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[id]
	if g == nil {
		return fmt.Errorf("cluster: device %d not enrolled", id)
	}
	if v.Seeds == nil {
		v.Seeds = g
	}
	if v.Device == "" {
		v.Device = fmt.Sprintf("device-%d", id)
	}
	c.bindings[id] = &binding{verifier: v, agent: agent, link: link}
	return nil
}

// Devices returns the enrolled chip IDs, ascending.
func (c *Cluster) Devices() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.groups))
	for id := range c.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Attest runs one attestation session for the device through the cluster
// accept path: ring routing, liveness failover, admission control, then
// the standard retry loop over the device's bound agent. Overload and
// leadership refusals return before any seed is claimed.
//
// The whole path runs under one "cluster.attest" root span with children
// for each distributed phase — route, queue.wait, the session itself
// (which adopts this trace via WithTraceParent), and the replication
// acknowledge cycle recorded by the group — so /debug/traces attributes
// end-to-end latency across every layer that can inflate it.
func (c *Cluster) Attest(ctx context.Context, id int, policy attest.RetryPolicy) (attest.Result, int, error) {
	c.mu.Lock()
	g := c.groups[id]
	b := c.bindings[id]
	c.mu.Unlock()
	if g == nil || b == nil {
		return attest.Result{}, 0, fmt.Errorf("cluster: device %d not enrolled and bound", id)
	}
	tracer := c.tel.Tracer
	sp := tracer.StartSpan("cluster.attest")
	defer sp.Finish()
	sp.SetAttr("device", strconv.Itoa(id))

	spRoute := sp.Child("route")
	shardID := c.ring.Route(DeviceKey(id))
	c.met.RouteTotal.With(shardID).Inc()
	if !c.shardAlive(shardID) {
		// The ring owner is down: serve from the group's current leader
		// (promoting, fail-closed, when the config allows).
		lead, err := g.Leader()
		if err != nil {
			spRoute.SetAttr("error", err.Error())
			spRoute.Finish()
			return attest.Result{}, 0, err
		}
		shardID = lead
		spRoute.SetAttr("failover", "true")
		c.met.FailoverRoutes.Inc()
	}
	spRoute.SetAttr("shard", shardID)
	spRoute.Finish()

	spWait := sp.Child("queue.wait")
	spWait.SetAttr("shard", shardID)
	waitStart := tracer.Now()
	release, queued, err := c.shards[shardID].adm.acquire(ctx)
	if queued {
		// Only sessions that actually queued are observed: the uncontended
		// fast path would bury the p99 in zeros. The root trace ID rides as
		// the bucket exemplar, linking the history point to this trace.
		c.met.QueueWait.ObserveExemplar(tracer.Now().Sub(waitStart).Seconds(), uint64(sp.TraceID()))
		spWait.SetAttr("queued", "true")
	}
	if err != nil {
		spWait.SetAttr("error", err.Error())
		spWait.Finish()
		return attest.Result{}, 0, err
	}
	spWait.Finish()
	defer release()
	b.mu.Lock()
	defer b.mu.Unlock()
	// The group's claim path (seed replication) runs inside the session;
	// publishing the root span lets replicateLocked hang its repl.ack span
	// under this trace. The binding mutex serialises sessions per device,
	// so one active span per group suffices.
	g.active.Store(sp)
	defer g.active.Store(nil)
	return c.tel.RunSessionRetry(attest.WithTraceParent(ctx, sp.Context()), b.verifier, b.agent, b.link, policy)
}

// SweepOutcome is one device's result from a cluster sweep.
type SweepOutcome struct {
	Result   attest.Result
	Attempts int
	Err      error
}

// Sweep attests every enrolled-and-bound device once, fanning out over
// workers goroutines (<=0 = 8). Per-device outcomes are returned keyed by
// chip ID; the sweep itself never fails — a shard dying mid-sweep shows
// up as per-device errors or, with AutoFailover, not at all.
func (c *Cluster) Sweep(ctx context.Context, policy attest.RetryPolicy, workers int) map[int]SweepOutcome {
	if workers <= 0 {
		workers = 8
	}
	ids := c.Devices()
	out := make(map[int]SweepOutcome, len(ids))
	var outMu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				res, attempts, err := c.Attest(ctx, id, policy)
				outMu.Lock()
				out[id] = SweepOutcome{Result: res, Attempts: attempts, Err: err}
				outMu.Unlock()
			}
		}()
	}
	for _, id := range ids {
		work <- id
	}
	close(work)
	wg.Wait()
	return out
}

// Audit is the merged claim-log audit: every device's replica logs
// cross-checked for the two properties that make failover safe — replica
// logs are prefixes of one longest log (histories never diverge), and no
// seed is claimed twice anywhere in that history.
type Audit struct {
	Devices    int      `json:"devices"`
	Frames     int      `json:"frames"` // longest live log per device, summed
	DeadShards []string `json:"dead_shards,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// Clean reports whether the audit found no violations.
func (a Audit) Clean() bool { return len(a.Violations) == 0 }

// AuditClaims merges every device's live replica logs and re-derives the
// no-duplicate-claim property from the raw frames (independently of the
// used-sets the claim path maintains). Dead shards are excluded — their
// logs are unreachable state, exactly as in a real deployment — and
// listed.
func (c *Cluster) AuditClaims() Audit {
	var audit Audit
	for _, sid := range c.order {
		if !c.shardAlive(sid) {
			audit.DeadShards = append(audit.DeadShards, sid)
		}
	}
	c.mu.Lock()
	ids := make([]int, 0, len(c.groups))
	for id := range c.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	groups := make([]*Group, 0, len(ids))
	for _, id := range ids {
		groups = append(groups, c.groups[id])
	}
	c.mu.Unlock()

	for _, g := range groups {
		audit.Devices++
		g.mu.Lock()
		logs := make(map[string][][]byte, len(g.replicas))
		for _, sid := range g.replicas {
			if c.shardAlive(sid) {
				logs[sid] = g.logs[sid].snapshotFrames()
			}
		}
		device := g.device
		g.mu.Unlock()

		var longest [][]byte
		for _, frames := range logs {
			if len(frames) > len(longest) {
				longest = frames
			}
		}
		audit.Frames += len(longest)
		for sid, frames := range logs {
			for i, f := range frames {
				if !bytesEqual(f, longest[i]) {
					audit.Violations = append(audit.Violations,
						fmt.Sprintf("device %d: shard %s diverges from longest log at seq %d", device, sid, i+1))
					break
				}
			}
		}
		seen := make(map[uint64]int, len(longest))
		for i, f := range longest {
			rec, err := store.DecodeWALFrame(f)
			if err != nil {
				audit.Violations = append(audit.Violations,
					fmt.Sprintf("device %d: invalid frame at seq %d: %v", device, i+1, err))
				continue
			}
			if rec.Transition {
				continue
			}
			if prev, dup := seen[rec.Seed]; dup {
				audit.Violations = append(audit.Violations,
					fmt.Sprintf("device %d: seed %#x claimed at seq %d and again at seq %d", device, rec.Seed, prev, i+1))
			}
			seen[rec.Seed] = i + 1
		}
	}
	if audit.Clean() {
		c.met.Audits.With("clean").Inc()
	} else {
		c.met.Audits.With("violations").Inc()
	}
	return audit
}

func bytesEqual(a, b []byte) bool { return bytes.Equal(a, b) }
