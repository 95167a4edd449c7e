package engine

import (
	"context"
	"fmt"
	"time"

	"xmlrdb/internal/obs"
	"xmlrdb/internal/sqldb"
)

// SetMetrics attaches a metrics hub: per-table counters (inserts,
// scans, index hits, lock waits) and per-statement execution latency
// are recorded into it. Attach before issuing concurrent operations; a
// nil hub (the default) disables collection.
func (db *DB) SetMetrics(m *obs.Metrics) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.obs = m
	for name, t := range db.tables {
		if m != nil {
			t.obs = m.Table(name)
		} else {
			t.obs = nil
		}
	}
	if db.wal != nil {
		db.wal.mu.Lock()
		db.wal.obs = m
		db.wal.mu.Unlock()
	}
}

// SetTracer attaches a tracer for structured events (slow queries).
// Attach before issuing concurrent operations.
func (db *DB) SetTracer(t obs.Tracer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracer = t
}

// SetSlowQueryThreshold enables the slow-query log: statements whose
// execution exceeds d emit a structured event through the tracer (and
// count in the metrics). Zero disables it (the default). Configure
// before issuing concurrent operations.
func (db *DB) SetSlowQueryThreshold(d time.Duration) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.slowQuery = d
}

// execStmtObserved dispatches one parsed statement, recording latency,
// statement-kind counters and the slow-query trace when observability
// is attached. sql is the original text when known (for trace detail).
// Observed SELECTs route through the cursor path so telemetry — the
// executed-plan digest, the fingerprint aggregate, operator spans —
// comes from one place regardless of whether the caller streams or
// materializes.
func (db *DB) execStmtObserved(ctx context.Context, st sqldb.Stmt, sql string) (Result, *Rows, error) {
	if db.obs == nil && db.tracer == nil && obs.TraceFrom(ctx) == nil {
		res, rows, err := db.dispatchStmt(ctx, st)
		db.maybeCheckpoint()
		return res, rows, err
	}
	if sel, ok := st.(*sqldb.Select); ok {
		return db.execSelectObserved(ctx, sel, sql)
	}
	start := time.Now()
	res, rows, err := db.dispatchStmt(ctx, st)
	d := time.Since(start)
	db.maybeCheckpoint()
	if db.obs != nil {
		db.obs.ExecLatency.ObserveDuration(d)
		switch st.(type) {
		case *sqldb.Insert:
			db.obs.InsertStmts.Inc()
		case *sqldb.Update:
			db.obs.Updates.Inc()
		case *sqldb.Delete:
			db.obs.Deletes.Inc()
		default:
			db.obs.OtherStmts.Inc()
		}
	}
	if thr := db.slowQuery; thr > 0 && d >= thr {
		if db.obs != nil {
			db.obs.SlowQueries.Inc()
		}
		if db.tracer != nil {
			detail := sql
			if detail == "" {
				detail = fmt.Sprintf("%T", st)
			}
			ev := obs.Event{Scope: "engine", Name: "slow-query", Detail: detail, Dur: d}
			if sql != "" {
				ev.Attrs = []obs.Attr{{Key: "fingerprint", Val: obs.Fingerprint(sql)}}
			}
			if err != nil {
				ev.Err = err.Error()
			}
			db.tracer.Emit(ev)
		}
	}
	return res, rows, err
}

// execSelectObserved is the observed materialized-SELECT path: a
// cursor is opened, wired into the observability hooks (observeCursor)
// and drained. A statement that fails before a cursor exists — parse
// binding, planning, context already cancelled — is still counted, so
// the statement counters keep their one-per-execution meaning.
func (db *DB) execSelectObserved(ctx context.Context, sel *sqldb.Select, sql string) (Result, *Rows, error) {
	start := time.Now()
	cc := newCancelCheck(ctx)
	err := cc.now()
	if err == nil {
		var cur *selectCursor
		cur, err = db.openSelect(ctx, sel, cc, false, nil)
		if err == nil {
			db.observeCursor(cur, sql)
			rows, derr := DrainCursor(cur)
			db.maybeCheckpoint()
			return Result{}, rows, derr
		}
	}
	db.maybeCheckpoint()
	d := time.Since(start)
	if db.obs != nil {
		db.obs.Selects.Inc()
		db.obs.ExecLatency.ObserveDuration(d)
		if sql != "" {
			db.obs.Queries.Observe(sql, d, 0, err, nil)
		}
	}
	return Result{}, nil, err
}
