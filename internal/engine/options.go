package engine

// Options is every switchable behaviour of a DB. The zero value is the
// configuration of the paper's Tables 1–9: serial, blind planning, one
// interface round trip per result row. An experiment is a diff against
// it (DESIGN.md, "Configuration").
//
// The DB publishes its options as an immutable snapshot: a statement
// loads the pointer once and reads plain fields, and no statement path
// takes a lock to learn a flag.
type Options struct {
	// Parallel is the intra-query parallel degree: sequential scans of
	// large tables split across up to this many workers. 0 or 1 is
	// serial. Plans compiled after a change pick up the new degree; a
	// prepared statement keeps the degree it was planned with.
	Parallel int
	// ArrayFetch ships result rows to the client in packets of up to
	// cost.ArrayFetchRows, one RowShipBatch charge per packet, instead of
	// one RowShip charge per row — the paper's Tables 4/5/7 hinge on the
	// tuple-at-a-time interface.
	ArrayFetch bool
	// PeekBinds defers a prepared SELECT's optimization to its first
	// execution and plans it with the actual bind values. Off is the
	// paper's blind planning (Table 6).
	PeekBinds bool
	// Adaptive records actual row counts on each prepared-statement
	// execution; a cached plan whose leading-scan estimate is off by
	// >= feedbackFactor is invalidated and replanned with the observed
	// cardinality (at most replanCap times per statement).
	Adaptive bool
}

// Options returns the database's current options.
func (db *DB) Options() Options { return *db.opts.Load() }

// SetOptions replaces the database's options. Statements that start
// after the call see the new value; a statement already running keeps
// the snapshot it loaded. Parallel is the one option a fingerprint-cached
// plan carries (peeked and feedback-driven plans are never cached, the
// rest is read per execution), so changing it retires the cached plans.
func (db *DB) SetOptions(o Options) {
	old := db.opts.Swap(&o)
	if o.Parallel != old.Parallel {
		db.bumpPlanEpoch()
	}
}
