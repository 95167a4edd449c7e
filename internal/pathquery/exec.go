package pathquery

import (
	"context"
	"fmt"
	"sync"

	"xmlrdb/internal/engine"
	"xmlrdb/internal/obs"
)

// Execute runs a translation to completion: the drain of ExecuteCursor.
func Execute(db *engine.DB, tr *Translation) (*engine.Rows, error) {
	return engine.DrainCursor(ExecuteCursor(context.Background(), db, tr))
}

// ExecuteCursor streams a translation's result: the union arms open
// lazily, one engine cursor at a time, so the first arm's rows reach
// the caller before later arms have run (or been planned). The caller
// must Close the cursor unless it drains it.
func ExecuteCursor(ctx context.Context, db *engine.DB, tr *Translation) engine.Cursor {
	return &unionCursor{ctx: ctx, db: db, sqls: tr.SQLs, cols: tr.Cols}
}

// unionCursor concatenates the per-arm engine cursors. Close may be
// called from another goroutine while Next runs (the serve layer closes
// abandoned cursors from a request-context watchdog), so both entry
// points serialize on mu.
type unionCursor struct {
	ctx  context.Context
	db   *engine.DB
	sqls []string
	cols []string

	mu     sync.Mutex
	i      int
	cur    engine.Cursor
	row    []any
	err    error
	closed bool
}

func (u *unionCursor) Cols() []string { return u.cols }
func (u *unionCursor) Row() []any     { return u.row }

func (u *unionCursor) Err() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

func (u *unionCursor) Next() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	for {
		if u.closed || u.err != nil {
			return false
		}
		if u.cur == nil {
			if u.i >= len(u.sqls) {
				u.closeLocked()
				return false
			}
			cur, err := u.db.QueryCursorContext(u.ctx, u.sqls[u.i])
			u.i++
			if err != nil {
				u.err = err
				u.closeLocked()
				return false
			}
			u.cur = cur
		}
		if u.cur.Next() {
			u.row = u.cur.Row()
			return true
		}
		if err := u.cur.Err(); err != nil {
			u.err = err
			u.closeLocked()
			return false
		}
		u.cur = nil // arm exhausted (already self-closed); advance
	}
}

func (u *unionCursor) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closeLocked()
	return nil
}

func (u *unionCursor) closeLocked() {
	if u.closed {
		return
	}
	u.closed = true
	if u.cur != nil {
		u.cur.Close()
		u.cur = nil
	}
}

// translateTraced wraps Translate in a pathquery.translate span: path,
// whether the plan cache served it, and the number of union arms.
func translateTraced(ctx context.Context, t Translator, q *Query, path string) (*Translation, error) {
	sp := obs.TraceFrom(ctx).StartChild(obs.CurrentSpan(ctx), "pathquery.translate")
	tr, err := t.Translate(q)
	if sp != nil {
		sp.SetAttr("path", path)
		if tr != nil {
			sp.SetAttr("cached", tr.Cached)
			sp.SetAttr("arms", len(tr.SQLs))
		}
		sp.SetErr(err)
		sp.End()
	}
	return tr, err
}

// RunCursor parses, translates and opens a streaming cursor over a path
// query's result. The caller must Close the cursor unless it drains it.
func RunCursor(ctx context.Context, db *engine.DB, t Translator, path string) (engine.Cursor, error) {
	q, err := Parse(path)
	if err != nil {
		return nil, err
	}
	tr, err := translateTraced(ctx, t, q, path)
	if err != nil {
		return nil, err
	}
	return ExecuteCursor(ctx, db, tr), nil
}

// ExplainContext renders the full EXPLAIN report for a translation: the
// translation header and generated SQL (Translation.Explain), followed
// by each arm's executed physical plan tree with per-operator row
// counts and timings.
func ExplainContext(ctx context.Context, db *engine.DB, tr *Translation) (string, error) {
	out := tr.Explain()
	for i, sql := range tr.SQLs {
		plan, err := db.ExplainQueryContext(ctx, sql)
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("-- physical plan (arm %d):\n%s", i+1, plan)
	}
	return out, nil
}
