package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"xmlrdb/internal/engine"
)

// E14 measures the vectorized executor against the row-at-a-time path
// on scan-heavy aggregates over a 100k-row shredded-shaped table, in
// three configurations: row-at-a-time, batched over raw values, and
// batched over dictionary-encoded columns (after ANALYZE). Every timed
// query is also checked for result equality across the paths, and the
// snapshot footprint is compared with and without dictionaries.

// E14Rows is the table size; overridable so the one-iteration smoke run
// stays cheap.
var E14Rows = 100_000

// E14Result is the machine-readable form `make bench-json` writes to
// BENCH_E14.json, so the perf trajectory is diffable across PRs.
type E14Result struct {
	Rows               int        `json:"rows"`
	Queries            []E14Query `json:"queries"`
	SnapshotPlainBytes int64      `json:"snapshot_plain_bytes"`
	SnapshotDictBytes  int64      `json:"snapshot_dict_bytes"`
	SnapshotRatio      float64    `json:"snapshot_ratio"`
}

// E14Query is one measured query across the three executor configs.
type E14Query struct {
	SQL         string  `json:"sql"`
	RowNS       int64   `json:"row_ns"`
	VecNS       int64   `json:"vec_ns"`
	DictNS      int64   `json:"dict_ns"`
	SpeedupVec  float64 `json:"speedup_vec"`
	SpeedupDict float64 `json:"speedup_dict"`
	Identical   bool    `json:"identical"`
}

// e14DDL creates the E14 workload table.
const e14DDL = `CREATE TABLE e_item (id INTEGER PRIMARY KEY, doc INTEGER,
  a_tag TEXT NOT NULL, a_val TEXT, ord INTEGER)`

// e14DB builds the workload table: shredded-string shape (a small set
// of element-like tags, moderate-cardinality PCDATA, some NULLs) at
// E14Rows rows.
func e14DB(seed int64) (*engine.DB, error) {
	db := engine.Open()
	if Observe != nil {
		db.SetMetrics(Observe)
	}
	if _, err := db.ExecCursorContext(context.Background(), e14DDL); err != nil {
		return nil, err
	}
	tags := []string{"para", "note", "figure", "table", "item", "ref",
		"title", "code", "quote", "list", "cell", "head"}
	const chunk = 5000
	for at := 0; at < E14Rows; at += chunk {
		n := chunk
		if at+n > E14Rows {
			n = E14Rows - at
		}
		batch := make([][]any, n)
		for i := range batch {
			id := at + i
			x := id*7 + int(seed)
			var val any
			if x%20 != 0 { // ~5% NULL PCDATA
				val = fmt.Sprintf("pcdata-%d", x%257)
			}
			batch[i] = []any{id, id / 100, tags[x%len(tags)], val, id}
		}
		if _, err := db.InsertBatch("e_item", batch); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// e14Time runs a query a few times and returns the mean latency and the
// result data.
func e14Time(db *engine.DB, sql string) (time.Duration, [][]any, error) {
	rows, err := query(db, sql) // warm
	if err != nil {
		return 0, nil, err
	}
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		if rows, err = query(db, sql); err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start) / reps, rows.Data, nil
}

// e14Snapshot loads the same table into a durable store (analyzed or
// not), checkpoints, and returns the snapshot file size.
func e14Snapshot(seed int64, analyze bool) (int64, error) {
	dir, err := os.MkdirTemp("", "xmlrdb-e14-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	db, err := engine.OpenAt(dir)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	mem, err := e14DB(seed)
	if err != nil {
		return 0, err
	}
	rows, err := query(mem, `SELECT id, doc, a_tag, a_val, ord FROM e_item ORDER BY id`)
	if err != nil {
		return 0, err
	}
	if _, err := db.ExecCursorContext(context.Background(), e14DDL); err != nil {
		return 0, err
	}
	if _, err := db.InsertBatch("e_item", rows.Data); err != nil {
		return 0, err
	}
	if analyze {
		if err := db.Analyze(); err != nil {
			return 0, err
		}
	}
	if err := db.Checkpoint(); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			info, err := os.Stat(filepath.Join(dir, e.Name()))
			if err != nil {
				return 0, err
			}
			return info.Size(), nil
		}
	}
	return 0, fmt.Errorf("e14: no snapshot written")
}

// E14 runs the vectorized-execution benchmark.
func E14(seed int64) (*Table, error) {
	db, err := e14DB(seed)
	if err != nil {
		return nil, err
	}
	queries := []string{
		`SELECT a_tag, COUNT(*) AS c, SUM(ord) AS s, MIN(ord) AS lo, MAX(ord) AS hi FROM e_item GROUP BY a_tag`,
		`SELECT COUNT(*) FROM e_item WHERE a_tag = 'figure'`,
		`SELECT COUNT(*) FROM e_item WHERE a_tag IN ('para', 'note')`,
		`SELECT a_val, COUNT(*) AS c FROM e_item WHERE a_tag = 'para' GROUP BY a_val`,
	}
	res := &E14Result{Rows: E14Rows}
	t := &Table{
		ID: "E14", Title: fmt.Sprintf("vectorized execution vs row-at-a-time (%d rows)", E14Rows),
		Header: []string{"query", "row-at-a-time", "vec", "vec+dict", "speedup", "identical"},
		Notes: []string{
			"vec = batched executor over raw values; vec+dict = after ANALYZE (dictionary-coded predicates and group keys)",
			"speedup = row-at-a-time / vec+dict; results compared across all three paths",
		},
	}
	for _, sql := range queries {
		db.SetVectorized(false)
		rowLat, rowData, err := e14Time(db, sql)
		if err != nil {
			return nil, err
		}
		db.SetVectorized(true)
		vecLat, vecData, err := e14Time(db, sql)
		if err != nil {
			return nil, err
		}
		if err := db.Analyze(); err != nil {
			return nil, err
		}
		dictLat, dictData, err := e14Time(db, sql)
		if err != nil {
			return nil, err
		}
		same := reflect.DeepEqual(rowData, vecData) && reflect.DeepEqual(rowData, dictData)
		q := E14Query{
			SQL: sql, RowNS: rowLat.Nanoseconds(), VecNS: vecLat.Nanoseconds(),
			DictNS: dictLat.Nanoseconds(), Identical: same,
		}
		if vecLat > 0 {
			q.SpeedupVec = float64(rowLat) / float64(vecLat)
		}
		if dictLat > 0 {
			q.SpeedupDict = float64(rowLat) / float64(dictLat)
		}
		res.Queries = append(res.Queries, q)
		short := sql
		if len(short) > 60 {
			short = short[:57] + "..."
		}
		t.Rows = append(t.Rows, []string{
			short,
			rowLat.Round(time.Microsecond).String(),
			vecLat.Round(time.Microsecond).String(),
			dictLat.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", q.SpeedupDict),
			fmt.Sprint(same),
		})
	}

	plain, err := e14Snapshot(seed, false)
	if err != nil {
		return nil, err
	}
	encoded, err := e14Snapshot(seed, true)
	if err != nil {
		return nil, err
	}
	res.SnapshotPlainBytes = plain
	res.SnapshotDictBytes = encoded
	if plain > 0 {
		res.SnapshotRatio = float64(encoded) / float64(plain)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"snapshot footprint: %d KB plain vs %d KB dictionary-encoded (%.0f%% of plain)",
		plain/1024, encoded/1024, res.SnapshotRatio*100))
	t.JSON = res
	return t, nil
}
