package engine

import (
	"fmt"
	"testing"
	"time"
)

// streamViews are the views TestDerivedStreams reads: a select-project-join
// view, an aggregate view, and a view read alone by a view.
var streamViews = []string{
	`CREATE VIEW tt_dim AS SELECT t.id, t.grp, t.v, d.g_name FROM tt t, dim d WHERE t.grp = d.g_id`,
	`CREATE VIEW tt_by_grp AS SELECT grp AS g, SUM(v) AS total, COUNT(*) AS n FROM tt GROUP BY grp`,
	`CREATE VIEW big_grp AS SELECT g, total FROM tt_by_grp WHERE n > 10`,
}

// streamCases lists, per statement, whether each derived relation its
// blocks read streams (planSelect's order: the blocks below first).
var streamCases = []struct {
	q       string
	streams []bool
}{
	{`SELECT id, g_name FROM tt_dim WHERE v > 500`, []bool{true}},                                             // a SPJ view read alone
	{`SELECT g, total FROM tt_by_grp WHERE n > 10`, []bool{true}},                                             // an aggregate view read alone
	{`SELECT g, total FROM big_grp`, []bool{true, true}},                                                      // a streamed view streaming its own
	{`SELECT id, v FROM tt_dim ORDER BY v DESC, id LIMIT 5`, []bool{true}},                                    // ORDER BY ... LIMIT reads everything
	{`SELECT grp, COUNT(*), MAX(v) FROM tt_dim GROUP BY grp ORDER BY grp`, []bool{true}},                      // grouped over a view
	{`SELECT g FROM tt_by_grp WHERE total = (SELECT MAX(total) FROM tt_by_grp)`, []bool{true, false}},         // Q15: the sub-block streams
	{`SELECT id FROM tt_dim LIMIT 5`, []bool{false}},                                                          // may stop early
	{`SELECT id FROM tt_dim WHERE grp IN (SELECT g_id FROM dim WHERE g_id < 2)`, []bool{false}},               // a subquery in the block
	{`SELECT g_id FROM dim WHERE EXISTS (SELECT id FROM tt_dim WHERE grp = g_id AND v > 990)`, []bool{false}}, // correlated
	{`SELECT b.g, t.id FROM tt_by_grp b, tt t WHERE t.id = b.n`, []bool{false}},                               // joined to a table
	{`SELECT COUNT(*) FROM tt t, tt_by_grp b WHERE t.grp = b.g`, []bool{false}},                               // a hash build
}

// TestDerivedStreams is the oracle for streaming a derived relation
// (selectPlan.planStream): each statement streams exactly the relations its
// case lists, and returns the same rows and charges the simulated clock to
// the nanosecond what it does with every relation materialized instead — on
// a pool too small for tt, serially, and on a resident one at degree 2, where
// the view's own plan runs partitioned lanes.
func TestDerivedStreams(t *testing.T) {
	type result struct {
		rows string
		lap  time.Duration
	}
	run := func(poolBytes, degree int, materialize bool) []result {
		s := vecDB(t, 1500, poolBytes)
		for _, v := range streamViews {
			mustExec(t, s, v)
		}
		s.db.SetOptions(Options{Parallel: degree})
		var streams []bool
		planned = func(p *selectPlan) {
			for _, st := range p.steps {
				if rel := st.bound(); rel != nil && rel.derived != nil {
					streams = append(streams, rel.stream)
					rel.stream = rel.stream && !materialize
				}
			}
		}
		defer func() { planned = nil }()
		var out []result
		for _, c := range streamCases {
			streams = streams[:0]
			start := s.Meter.Elapsed()
			rows := encodeRows(mustExec(t, s, c.q).Rows)
			out = append(out, result{rows, s.Meter.Lap(start)})
			if got, want := fmt.Sprint(streams), fmt.Sprint(c.streams); got != want {
				t.Errorf("%q: derived relations stream %s, want %s", c.q, got, want)
			}
		}
		return out
	}
	for _, cfg := range []struct{ poolBytes, degree int }{{coldPoolBytes, 1}, {0, 2}} {
		streamed, materialized := run(cfg.poolBytes, cfg.degree, false), run(cfg.poolBytes, cfg.degree, true)
		for i, c := range streamCases {
			if streamed[i].rows != materialized[i].rows {
				t.Errorf("pool %d, degree %d, %q: streaming changed the rows", cfg.poolBytes, cfg.degree, c.q)
			}
			if streamed[i].lap != materialized[i].lap {
				t.Errorf("pool %d, degree %d, %q: streamed lap %v, materialized %v", cfg.poolBytes, cfg.degree, c.q, streamed[i].lap, materialized[i].lap)
			}
		}
	}
}
