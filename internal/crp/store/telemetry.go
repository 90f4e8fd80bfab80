package store

import "pufatt/internal/telemetry"

// Store instruments. Claim, enrollment and lookup outcomes are counted by
// crp.Claims in the crp_* family, so operators watch one replay/exhaustion
// signal regardless of which backend serves a device; the crpstore_* set
// covers the durability machinery itself — WAL traffic, snapshot I/O,
// compactions, and how hard the registry shards are being fought over.
var (
	snapshotLoads = telemetry.Default().Counter("crpstore_snapshot_loads_total",
		"Enrollment snapshots loaded from disk.")
	snapshotWrites = telemetry.Default().Counter("crpstore_snapshot_writes_total",
		"Enrollment snapshots written (enrollments and compactions).")
	walAppends = telemetry.Default().Counter("crpstore_wal_appends_total",
		"Claim records appended to write-ahead logs.")
	walReplayedRecords = telemetry.Default().Counter("crpstore_wal_replayed_records_total",
		"Claim records replayed from write-ahead logs at open.")
	walTornTails = telemetry.Default().Counter("crpstore_wal_torn_tails_total",
		"Torn write-ahead-log tails detected and truncated at open.")
	compactions = telemetry.Default().Counter("crpstore_compactions_total",
		"WAL-into-snapshot compactions performed.")
	openStores = telemetry.Default().Gauge("crpstore_open_stores",
		"Device stores currently open (snapshot resident in memory).")
	shardContention = telemetry.Default().Counter("crpstore_shard_contention_total",
		"Registry shard lock acquisitions that had to wait behind another holder.")
	evictions = telemetry.Default().Counter("crpstore_evictions_total",
		"Device stores evicted from the registry's hot LRU.")

	epochStagings = telemetry.Default().Counter("crpstore_epoch_stagings_total",
		"Re-enrollments staged (measured and written to crp.snap.next).")
	epochStagingsDiscarded = telemetry.Default().Counter("crpstore_epoch_stagings_discarded_total",
		"Staged re-enrollments discarded (explicitly or as uncommitted cutovers at open).")
	epochTransitions = telemetry.Default().Counter("crpstore_epoch_transitions_total",
		"Epoch cutovers committed (transition record durable, new enrollment live).")
	epochRecoveries = telemetry.Default().Counter("crpstore_epoch_recoveries_total",
		"Committed cutovers completed at open from a surviving staged snapshot.")
	epochRetiredOpens = telemetry.Default().Counter("crpstore_epoch_retired_opens_total",
		"Stores opened retired: cutover committed but the staged enrollment was lost.")
)
