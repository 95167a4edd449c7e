package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"xmlrdb/internal/sqldb"
)

// EXPLAIN rendering for physical plans: one line per operator, indented
// two spaces per tree level, with the planner's cardinality hint and —
// after execution — the actual rows each operator emitted and the time
// spent in it.

type explainMode int

const (
	// explainEst renders estimates only (plan not executed).
	explainEst explainMode = iota
	// explainRows adds actual per-operator row counts (deterministic;
	// what the golden tests pin).
	explainRows
	// explainTimed adds per-operator wall clock.
	explainTimed
)

// renderPlan renders the operator tree, root first.
func renderPlan(p *physPlan, mode explainMode) string {
	var b strings.Builder
	walkPlan(p.root, 0, func(n planNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.describe())
		fmt.Fprintf(&b, " (est=%d", n.estimate())
		if mode >= explainRows {
			fmt.Fprintf(&b, " rows=%d", n.stats().rows)
			if v, ok := n.(*vecNode); ok {
				fmt.Fprintf(&b, " batches=%d rows/batch=%d", v.batches, v.rowsPerBatch())
			}
		}
		if mode >= explainTimed {
			st := n.stats()
			fmt.Fprintf(&b, " time=%s", time.Duration(st.openNanos+st.nanos).Round(time.Microsecond))
		}
		b.WriteString(")\n")
	})
	return b.String()
}

// ExplainQueryContext executes a SELECT with per-operator timing on and
// renders its physical plan tree with actual row counts and operator
// times. The query runs to completion (the row counts are real); its
// rows are discarded.
func (db *DB) ExplainQueryContext(ctx context.Context, sql string) (string, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*sqldb.Select)
	if !ok {
		return "", errors.New("engine: EXPLAIN requires a SELECT")
	}
	cc := newCancelCheck(ctx)
	if err := cc.now(); err != nil {
		return "", err
	}
	cur, err := db.openSelect(ctx, sel, cc, true, nil)
	if err != nil {
		return "", err
	}
	defer cur.Close()
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		return "", err
	}
	return renderPlan(cur.plan, explainTimed), nil
}
