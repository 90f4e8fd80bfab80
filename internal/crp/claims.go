package crp

// Claims is the single-use claim state over one Enrollment: which seeds
// are consumed, the NextUnused scan position, and an O(1) unused count.
// It holds every claim rule — unknown and replayed seeds refused, skipped
// seeds not counted as replays, references served only for claimed seeds —
// and the crp_claims_total accounting, so the in-memory Database and the
// durable store behave identically. Claims is not synchronised: its owner
// serialises every call under its own lock.
type Claims struct {
	enr    *Enrollment
	used   []bool // indexed like enr.seeds
	unused int
	cursor int
	// retired, when set, refuses every claim and reference with this error.
	retired error
}

// NewClaims returns the claim state for enr. A nil used starts a freshly
// enrolled state, which counts the enrollment's seeds into
// crp_enrolled_seeds_total; a non-nil used (one entry per seed, adopted)
// restores a persisted state.
func NewClaims(enr *Enrollment, used []bool) *Claims {
	if used == nil {
		used = make([]bool, enr.Len())
		enrolledSeeds.Add(uint64(enr.Len()))
	}
	c := &Claims{enr: enr, used: used}
	for _, u := range used {
		if !u {
			c.unused++
		}
	}
	return c
}

// Used returns the per-seed consumed flags in enrollment order. The slice
// is live and must not be modified.
func (c *Claims) Used() []bool { return c.used }

// Replay marks a seed consumed while restoring persisted claims: it is
// idempotent and counts no telemetry. It reports false for an unknown seed.
func (c *Claims) Replay(seed uint64) bool {
	i, ok := c.enr.index[seed]
	if ok && !c.used[i] {
		c.used[i] = true
		c.unused--
	}
	return ok
}

// Retire refuses every later claim and reference with err: the state of an
// epoch that was retired with no successor installed.
func (c *Claims) Retire(err error) { c.retired = err }

// Claim marks a seed consumed. It fails on unknown, already-used and
// retired seeds. log, when non-nil, runs between the check and the mark —
// the owner's write-ahead hook: if it fails, the seed stays unclaimed and
// its error is returned, so a claim is never acknowledged before it is
// logged.
func (c *Claims) Claim(seed uint64, log func(uint64) error) error {
	if c.retired != nil {
		claims.With("retired").Inc()
		return c.retired
	}
	i, ok := c.enr.index[seed]
	if !ok {
		claims.With("unknown").Inc()
		return ErrUnknownSeed
	}
	if c.used[i] {
		claims.With("replay").Inc()
		return ErrSeedUsed
	}
	return c.mark(i, log)
}

func (c *Claims) mark(i int, log func(uint64) error) error {
	if log != nil {
		if err := log(c.enr.seeds[i]); err != nil {
			return err
		}
	}
	c.used[i] = true
	c.unused--
	claims.With("ok").Inc()
	return nil
}

// Next claims and returns the next unused seed in enrollment order, with
// Claim's log hook. Seeds already consumed by direct Claim calls are
// skipped silently: a skip is bookkeeping, not a replay attempt, so it
// must not show up in the "replay" count.
func (c *Claims) Next(log func(uint64) error) (uint64, error) {
	if c.retired != nil {
		claims.With("retired").Inc()
		return 0, c.retired
	}
	for ; c.cursor < len(c.used); c.cursor++ {
		if c.used[c.cursor] {
			continue
		}
		if err := c.mark(c.cursor, log); err != nil {
			return 0, err
		}
		seed := c.enr.seeds[c.cursor]
		c.cursor++
		return seed, nil
	}
	claims.With("exhausted").Inc()
	return 0, ErrExhausted
}

// Remaining returns how many seeds are still unclaimed (0 once retired).
func (c *Claims) Remaining() int {
	if c.retired != nil {
		return 0
	}
	return c.unused
}

// Reference returns expansion j of a claimed seed's references (see
// Enrollment.Reference).
func (c *Claims) Reference(seed uint64, j int) ([]uint8, error) {
	if c.retired != nil {
		return nil, c.retired
	}
	return c.enr.Reference(seed, j, func(i int) bool { return c.used[i] })
}
