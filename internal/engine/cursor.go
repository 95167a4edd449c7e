package engine

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"time"

	"xmlrdb/internal/obs"
	"xmlrdb/internal/sqldb"
)

// Cursor is a streaming query result: rows are produced one at a time
// as the caller pulls them, so a consumer that stops early (LIMIT, a
// disconnected client) never pays for the rows it didn't read. The
// cursor holds no locks while open: it pins an immutable snapshot of
// its source tables at open (see version.go), so writers, Checkpoint
// and DDL proceed freely while the stream runs and the cursor's rows
// are exactly the tables' state at open time. It closes itself when the
// stream ends or fails, and callers that may abandon a cursor early
// must Close it to release the snapshot pin (Close is idempotent, and
// safe to call concurrently with Next — serve's request-scoped guard
// relies on that).
//
// Every statement runs through one of the engine's two entry points,
// and both return a Cursor: QueryCursorContext takes a SELECT, and
// ExecCursorContext takes any statement (a non-query yields an empty
// cursor). DrainCursor is the one materializer:
//
//	cur, err := db.QueryCursorContext(ctx, sql)
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		use(cur.Row())
//	}
//	if err := cur.Err(); err != nil { ... }
//
//	rows, err := engine.DrainCursor(cur) // or: the whole result at once
type Cursor interface {
	// Cols returns the output column names.
	Cols() []string
	// Next advances to the next row, reporting whether one is available.
	Next() bool
	// Row returns the current row; valid until the next call to Next.
	Row() []any
	// Err returns the terminal error, if the stream failed.
	Err() error
	// Close releases the cursor's snapshot pin and flushes its plan
	// statistics.
	Close() error
}

// selectCursor is the engine's streaming cursor over one physical plan.
// mu serializes Next and Close: Next is single-consumer, but Close may
// arrive from another goroutine (the serve layer closes abandoned
// cursors from a request-context watchdog).
type selectCursor struct {
	db      *DB
	plan    *physPlan
	it      rowIter
	ec      *execCtx
	row     []any
	err     error
	mu      sync.Mutex
	closed  bool
	release func() // version refs + epoch pin; nil once released
	onClose func(c *selectCursor)
	start   time.Time
	sql     string
	trace   *obs.Trace // request trace, nil when the context carried none
	span    *obs.Span  // the cursor's engine.select span, ended at Close
}

// openSelect plans a SELECT and opens its iterator tree. The read locks
// are held only inside this call: binding, version capture and planning
// run under db.mu shared plus read locks on every source table (taken
// together, so multi-table captures are mutually consistent), then the
// locks drop and the returned cursor streams from the captured versions
// holding nothing but its snapshot pin. A trace in ctx forces
// per-operator timing on and records planning and (at Close) operator
// spans. pick is the join order for buildPlan; nil lets the planner
// choose.
func (db *DB) openSelect(ctx context.Context, s *sqldb.Select, cc *cancelCheck, timing bool, pick joinOrderFunc) (*selectCursor, error) {
	tr := obs.TraceFrom(ctx)
	var selSpan *obs.Span
	var sampleMask int64
	if tr != nil {
		if !timing {
			// Traced production query: time a 1-in-16 sample of Next
			// calls rather than every row, so always-on tracing stays
			// cheap. EXPLAIN (timing already true) keeps full timing.
			sampleMask = 15
		}
		timing = true
		// StartChild rather than StartSpan: the derived context would
		// only feed the engine.plan span below, so skip the two
		// context.WithValue allocations per traced query.
		selSpan = tr.StartChild(obs.CurrentSpan(ctx), "engine.select")
	}
	fail := func(err error) (*selectCursor, error) {
		selSpan.SetErr(err)
		selSpan.End()
		return nil, err
	}
	db.mu.RLock()
	srcs, env, err := db.bindSelect(s)
	if err != nil {
		db.mu.RUnlock()
		return fail(err)
	}
	reads := make([]string, 0, len(srcs))
	for _, src := range srcs {
		reads = append(reads, src.ref.Table)
	}
	rowUnlock := db.lockRows(nil, reads)
	// Pin the statement's snapshot: every source's current version is
	// captured while all source read locks are held together, so the
	// captures are mutually consistent, and the epoch is registered for
	// the vacuum/observability surface.
	epoch := db.clock.Load()
	for i := range srcs {
		srcs[i].ver = srcs[i].t.capture(epoch)
	}
	db.pins.pin(epoch)
	release := func() {
		for i := range srcs {
			srcs[i].ver.release()
		}
		db.pins.unpin(epoch)
	}
	var planSpan *obs.Span
	if tr != nil {
		planSpan = tr.StartChild(selSpan, "engine.plan")
	}
	plan, err := db.buildPlan(s, srcs, env, pick)
	if planSpan != nil {
		planSpan.SetAttr("tables", len(srcs))
		planSpan.SetErr(err)
		planSpan.End()
	}
	// Planning consulted the catalog and copied the index postings it
	// needs; execution reads only the captured versions, so the locks
	// drop here and the cursor streams without blocking any writer.
	rowUnlock()
	db.mu.RUnlock()
	if err != nil {
		release()
		return fail(err)
	}
	ec := &execCtx{env: env, cc: cc, timing: timing, sampleMask: sampleMask}
	it, err := openNode(plan.root, ec)
	if err != nil {
		plan.finish(db)
		release()
		return fail(err)
	}
	return &selectCursor{db: db, plan: plan, it: it, ec: ec,
		release: release, start: time.Now(), trace: tr, span: selSpan}, nil
}

func (c *selectCursor) Cols() []string { return c.plan.cols }
func (c *selectCursor) Row() []any     { return c.row }
func (c *selectCursor) Err() error     { return c.err }

func (c *selectCursor) Next() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.closed {
		return false
	}
	row, err := c.it.Next()
	if err == io.EOF {
		c.closeLocked()
		return false
	}
	if err != nil {
		c.err = err
		c.closeLocked()
		return false
	}
	c.row = row
	return true
}

func (c *selectCursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

func (c *selectCursor) closeLocked() {
	if c.closed {
		return
	}
	c.closed = true
	c.plan.finish(c.db)
	c.plan.emitSpans(c.trace, c.span, c.start)
	c.release()
	c.release = nil
	if c.onClose != nil {
		c.onClose(c)
	}
	c.span.SetAttr("rows", c.plan.root.stats().rows)
	c.span.SetErr(c.err)
	c.span.End()
}

// finish flushes the plan's runtime statistics into the metrics hub:
// per-scan visited rows into the table's RowsScanned and per-operator
// row counts into the engine's operator counters. Idempotent.
func (p *physPlan) finish(db *DB) {
	if p.finished {
		return
	}
	p.finished = true
	m := db.obs
	walkPlan(p.root, 0, func(n planNode, depth int) {
		if sc, ok := n.(*scanNode); ok && sc.src.t.obs != nil {
			sc.src.t.obs.RowsScanned.Add(sc.visited)
		}
		if m == nil {
			return
		}
		if v, ok := n.(*vecNode); ok {
			m.VecBatches.Add(v.batches)
			for _, sel := range v.batchSel {
				m.VecBatchRows.Observe(sel)
			}
		}
		rows := n.stats().rows
		if rows == 0 {
			return
		}
		switch n.kind() {
		case "scan":
			m.OpScanRows.Add(rows)
		case "filter":
			m.OpFilterRows.Add(rows)
		case "join":
			m.OpJoinRows.Add(rows)
		case "aggregate":
			m.OpAggregateRows.Add(rows)
		case "project":
			m.OpProjectRows.Add(rows)
		case "sort":
			m.OpSortRows.Add(rows)
		case "distinct":
			m.OpDistinctRows.Add(rows)
		case "limit":
			m.OpLimitRows.Add(rows)
		}
	})
	if m != nil {
		m.RowsOut.Add(p.root.stats().rows)
	}
}

// emitSpans records one completed span per operator into the request
// trace: the node's describe line, its estimated and actual row counts,
// and the time accounted by its statIter wrapper (timing is forced on
// for traced cursors). All operator spans attach under parent. The
// describe/est/rows triple comes from the memoized digest — walkPlan
// visits nodes in the same order — so traced requests render each
// operator's describe line once, not once here and once for telemetry.
func (p *physPlan) emitSpans(tr *obs.Trace, parent *obs.Span, start time.Time) {
	if tr == nil {
		return
	}
	dig := p.digest()
	i := 0
	walkPlan(p.root, 0, func(n planNode, depth int) {
		st := n.stats()
		od := dig.Ops[i]
		i++
		attrs := []obs.Attr{
			{Key: "op", Val: od.Name},
			{Key: "est", Val: od.Est},
			{Key: "rows", Val: od.Rows},
		}
		if v, ok := n.(*vecNode); ok {
			attrs = append(attrs, obs.Attr{Key: "batches", Val: v.batches})
		}
		tr.AddCompletedSpan(parent, "op."+n.kind(),
			start, time.Duration(st.openNanos+st.estNanos()), attrs...)
	})
}

// digest summarizes the executed plan for query telemetry and the
// slow-query log: per-operator estimated-vs-actual rows, plus a
// root-first one-line shape. Memoized — the trace's operator spans and
// the telemetry hook both want it at cursor close, and describe()
// builds strings.
func (p *physPlan) digest() *obs.PlanDigest {
	if p.dig != nil {
		return p.dig
	}
	d := &obs.PlanDigest{}
	var parts []string
	walkPlan(p.root, 0, func(n planNode, depth int) {
		d.Ops = append(d.Ops, obs.OpDigest{
			Name: n.describe(), Est: int64(n.estimate()), Rows: n.stats().rows,
		})
		if len(parts) < 8 {
			parts = append(parts, n.describe())
		}
	})
	d.Summary = strings.Join(parts, " <- ")
	if len(d.Summary) > 240 {
		d.Summary = d.Summary[:237] + "..."
	}
	p.dig = d
	return d
}

// cardinalityHinter is implemented by cursors that know their plan's
// estimated output size, so DrainCursor can preallocate.
type cardinalityHinter interface {
	CardinalityHint() int
}

// drainPreallocCap bounds the hint-driven preallocation: a wild
// overestimate must not allocate an arbitrarily large empty slice.
const drainPreallocCap = 4096

// CardinalityHint returns the planner's estimate for the root operator.
func (c *selectCursor) CardinalityHint() int {
	if c.plan == nil || c.plan.root == nil {
		return 0
	}
	return c.plan.root.estimate()
}

// DrainCursor materializes a cursor into Rows, closing it. A failed
// stream returns the error and no partial result. Cursors exposing a
// cardinality hint get their result slice preallocated from it.
func DrainCursor(c Cursor) (*Rows, error) {
	defer c.Close()
	res := &Rows{Cols: c.Cols()}
	if h, ok := c.(cardinalityHinter); ok {
		if hint := h.CardinalityHint(); hint > 0 {
			res.Data = make([][]any, 0, minInt(hint, drainPreallocCap))
		}
	}
	for c.Next() {
		res.Data = append(res.Data, c.Row())
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(res.Data) == 0 {
		res.Data = nil // empty results stay nil regardless of preallocation
	}
	return res, nil
}

// QueryCursorContext parses a SELECT and returns a streaming cursor
// over its result: rows are produced as the caller pulls them out of
// the snapshot the cursor pinned at open, which stays pinned until the
// cursor is closed (or the stream ends). A non-query statement is an
// error. DrainCursor materializes the result.
func (db *DB) QueryCursorContext(ctx context.Context, sql string) (Cursor, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqldb.Select)
	if !ok {
		return nil, errors.New("engine: statement is not a query")
	}
	return db.queryCursor(ctx, sel, sql)
}

// queryCursor is the one way a SELECT runs: every read, streamed or
// drained, opens here and is observed by observeCursor. A statement
// that fails before its cursor exists is observed by observeFailedOpen.
func (db *DB) queryCursor(ctx context.Context, sel *sqldb.Select, sql string) (Cursor, error) {
	start := time.Now()
	cc := newCancelCheck(ctx)
	err := cc.now()
	var cur *selectCursor
	if err == nil {
		cur, err = db.openSelect(ctx, sel, cc, false, nil)
	}
	if err != nil {
		db.observeFailedOpen(sql, start, err)
		return nil, err
	}
	db.observeCursor(cur, sql)
	return cur, nil
}

// ExecCursorContext parses and executes one statement of any kind,
// returning its result as a cursor: a SELECT streams (as from
// QueryCursorContext); any other statement runs to completion through
// the statement dispatcher and yields an empty cursor, so callers like
// the HTTP layer handle both uniformly.
func (db *DB) ExecCursorContext(ctx context.Context, sql string) (Cursor, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sel, ok := st.(*sqldb.Select); ok {
		return db.queryCursor(ctx, sel, sql)
	}
	if _, err := db.execStmtObserved(ctx, st, sql); err != nil {
		return nil, err
	}
	return NewRowsCursor(&Rows{}), nil
}

// observeCursor wires the streaming statement into the observability
// hooks: the statement counts when opened; latency (open through
// close), per-fingerprint query telemetry with the executed-plan
// digest, and the slow-query trace record follow when the cursor
// closes.
func (db *DB) observeCursor(c *selectCursor, sql string) {
	if db.obs == nil && db.tracer == nil && c.trace == nil {
		return
	}
	if db.obs != nil {
		db.obs.Selects.Inc()
	}
	c.sql = sql
	c.onClose = func(c *selectCursor) {
		d := time.Since(c.start)
		var dig *obs.PlanDigest
		if db.obs != nil || db.tracer != nil {
			dig = c.plan.digest()
		}
		if db.obs != nil {
			db.obs.ExecLatency.ObserveDuration(d)
			if c.sql != "" {
				db.obs.Queries.Observe(c.sql, d, c.plan.root.stats().rows, c.err, dig)
			}
		}
		if thr := db.slowQuery; thr > 0 && d >= thr {
			if db.obs != nil {
				db.obs.SlowQueries.Inc()
			}
			if db.tracer != nil {
				detail := c.sql
				if detail == "" {
					detail = "streamed select"
				}
				ev := obs.Event{Scope: "engine", Name: "slow-query", Detail: detail, Dur: d,
					Attrs: []obs.Attr{
						{Key: "fingerprint", Val: obs.Fingerprint(detail)},
						{Key: "plan", Val: dig.Summary},
					}}
				if c.err != nil {
					ev.Err = c.err.Error()
				}
				db.tracer.Emit(ev)
			}
		}
	}
}

// NewRowsCursor adapts a materialized Rows into a Cursor.
func NewRowsCursor(r *Rows) Cursor {
	return &rowsCursor{rows: r}
}

type rowsCursor struct {
	rows *Rows
	i    int
	row  []any
}

func (c *rowsCursor) Cols() []string { return c.rows.Cols }
func (c *rowsCursor) Row() []any     { return c.row }
func (c *rowsCursor) Err() error     { return nil }
func (c *rowsCursor) Close() error   { return nil }

func (c *rowsCursor) Next() bool {
	if c.i >= len(c.rows.Data) {
		return false
	}
	c.row = c.rows.Data[c.i]
	c.i++
	return true
}
