package engine

import (
	"context"
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

// execStmtObserved dispatches one parsed non-query statement, recording
// latency, statement-kind counters and the slow-query trace when
// observability is attached, then runs the automatic checkpoint the
// statement's WAL frames may have made due. sql is the original text
// (for trace detail). SELECTs are observed by observeCursor instead.
func (db *DB) execStmtObserved(ctx context.Context, st sqldb.Stmt, sql string) (Result, error) {
	if db.obs == nil && db.tracer == nil {
		res, err := db.dispatchStmt(ctx, st)
		db.maybeCheckpoint()
		return res, err
	}
	start := time.Now()
	res, err := db.dispatchStmt(ctx, st)
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
			ev := obs.Event{Scope: "engine", Name: "slow-query", Detail: sql, Dur: d,
				Attrs: []obs.Attr{{Key: "fingerprint", Val: obs.Fingerprint(sql)}}}
			if err != nil {
				ev.Err = err.Error()
			}
			db.tracer.Emit(ev)
		}
	}
	return res, err
}

// observeFailedOpen records a SELECT that failed before a cursor
// existed (binding, planning, a context already cancelled): it counts
// once in Selects, ExecLatency and the fingerprint's query statistics,
// so the statement counters keep their one-per-execution meaning.
func (db *DB) observeFailedOpen(sql string, start time.Time, err error) {
	if db.obs == nil {
		return
	}
	d := time.Since(start)
	db.obs.Selects.Inc()
	db.obs.ExecLatency.ObserveDuration(d)
	db.obs.Queries.Observe(sql, d, 0, err, nil)
}
