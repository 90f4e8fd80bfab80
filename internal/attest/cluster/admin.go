package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pufatt/internal/attest"
)

// AdminMux extends the attestation admin surface (attest.AdminMux: metrics,
// history, alerts, traces, journal, health, pprof) with the cluster's
// routes:
//
//	/ring     the consistent-hash placement: per-shard ownership fractions,
//	          vnode counts, and liveness
//	/cluster  enrolled devices with their replica sets, current leaders,
//	          applied log sequences, and acknowledged high-water marks
//	/probes   per-shard synthetic canary statuses (empty array until a
//	          Prober is attached); ?shard= filters to one shard
//
// A nil Telemetry serves the package default (where the cluster metrics
// live).
func AdminMux(c *Cluster, t *attest.Telemetry) *http.ServeMux {
	mux := attest.AdminMux(t)
	mux.HandleFunc("/ring", adminGet(func(w http.ResponseWriter, _ *http.Request) {
		snap := c.ring.Snapshot()
		for i := range snap.Shards {
			snap.Shards[i].Alive = c.shardAlive(snap.Shards[i].Shard)
		}
		writeJSON(w, snap)
	}))
	mux.HandleFunc("/cluster", adminGet(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, c.Snapshot())
	}))
	mux.HandleFunc("/probes", adminGet(func(w http.ResponseWriter, r *http.Request) {
		var statuses []ProbeStatus
		if p := c.Prober(); p != nil {
			statuses = p.Status()
		}
		if shard := r.URL.Query().Get("shard"); shard != "" {
			if c.Shard(shard) == nil {
				http.Error(w, fmt.Sprintf("cluster: unknown shard %q", shard), http.StatusBadRequest)
				return
			}
			filtered := statuses[:0]
			for _, st := range statuses {
				if st.Shard == shard {
					filtered = append(filtered, st)
				}
			}
			statuses = filtered
		}
		if statuses == nil {
			// An empty array, not null: federation and dashboards treat the
			// body as a list unconditionally.
			statuses = []ProbeStatus{}
		}
		writeJSON(w, statuses)
	}))
	return mux
}

// adminGet mirrors the attest admin surface's read-only discipline: GET
// and HEAD pass, everything else is 405 with an Allow header.
func adminGet(fn func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fn(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// GroupStatus is one device's row in the /cluster view.
type GroupStatus struct {
	Device        int               `json:"device"`
	Leader        string            `json:"leader"`
	HighWaterMark uint64            `json:"high_water_mark"`
	Remaining     int               `json:"remaining_seeds"`
	Epoch         uint32            `json:"epoch"`
	Applied       map[string]uint64 `json:"applied"`
}

// ClusterSnapshot is the /cluster view.
type ClusterSnapshot struct {
	Shards  []ShardOwnership `json:"shards"`
	Devices []GroupStatus    `json:"devices"`
}

// Snapshot captures the cluster's control-plane state for the admin view.
func (c *Cluster) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{}
	ringSnap := c.ring.Snapshot()
	for i := range ringSnap.Shards {
		ringSnap.Shards[i].Alive = c.shardAlive(ringSnap.Shards[i].Shard)
	}
	snap.Shards = ringSnap.Shards
	for _, id := range c.Devices() {
		g := c.Group(id)
		if g == nil {
			continue
		}
		g.mu.Lock()
		st := GroupStatus{
			Device:        g.device,
			Leader:        g.replicas[g.leader],
			HighWaterMark: g.hwm,
			Epoch:         g.logs[g.replicas[g.leader]].epoch,
			Applied:       make(map[string]uint64, len(g.replicas)),
		}
		for _, sid := range g.replicas {
			st.Applied[sid] = g.logs[sid].applied()
		}
		st.Remaining = g.remainingLocked(g.logs[g.replicas[g.leader]])
		g.mu.Unlock()
		snap.Devices = append(snap.Devices, st)
	}
	return snap
}
