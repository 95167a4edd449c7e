package engine

import (
	"context"

	"xmlrdb/internal/sqldb"
)

// SQL-text helpers for the engine's tests. They run statements the way
// the engine's two entry points do: a SELECT opens through queryCursor
// and is drained, any other statement goes through the observed
// dispatcher, which also reports the rows it affected.

// execSQLContext runs one statement of any kind under ctx.
func execSQLContext(ctx context.Context, db *DB, sql string) (Result, *Rows, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return Result{}, nil, err
	}
	if sel, ok := st.(*sqldb.Select); ok {
		cur, err := db.queryCursor(ctx, sel, sql)
		if err != nil {
			return Result{}, nil, err
		}
		rows, err := DrainCursor(cur)
		return Result{}, rows, err
	}
	res, err := db.execStmtObserved(ctx, st, sql)
	return res, nil, err
}

// execSQL runs one statement of any kind.
func execSQL(db *DB, sql string) (Result, *Rows, error) {
	return execSQLContext(context.Background(), db, sql)
}

// execScript runs a semicolon-separated script of non-query statements.
func execScript(db *DB, script string) error {
	stmts, err := sqldb.ParseScript(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, err := db.execStmtObserved(context.Background(), st, script); err != nil {
			return err
		}
	}
	return nil
}

// querySQLContext drains QueryCursorContext.
func querySQLContext(ctx context.Context, db *DB, sql string) (*Rows, error) {
	cur, err := db.QueryCursorContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return DrainCursor(cur)
}

// querySQL drains QueryCursorContext under a background context.
func querySQL(db *DB, sql string) (*Rows, error) {
	return querySQLContext(context.Background(), db, sql)
}

// mustQuery is querySQL that panics on error.
func mustQuery(db *DB, sql string) *Rows {
	rows, err := querySQL(db, sql)
	if err != nil {
		panic(err)
	}
	return rows
}
