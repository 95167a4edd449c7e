package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xmlrdb/internal/sqldb"
)

// cboDB builds the skewed three-table chain the cost-based planner
// tests run on: a tiny docs table, a large elems table whose rows pile
// onto doc 1, and an even larger attrs table fanning out from elems.
// Written as FROM elems JOIN attrs JOIN docs, the written order hashes
// the biggest table first; the cost-based planner should start from
// the one-row docs probe instead.
func cboDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	err := execScript(db, `
CREATE TABLE docs (id INTEGER PRIMARY KEY, name TEXT NOT NULL);
CREATE TABLE elems (id INTEGER PRIMARY KEY, doc INTEGER NOT NULL, type TEXT NOT NULL,
  val INTEGER, FOREIGN KEY (doc) REFERENCES docs (id));
CREATE TABLE attrs (id INTEGER PRIMARY KEY, elem INTEGER NOT NULL, kind TEXT NOT NULL,
  FOREIGN KEY (elem) REFERENCES elems (id));
CREATE INDEX docs_name ON docs (name);
CREATE ORDERED INDEX elems_val ON elems (val);
`)
	if err != nil {
		tb.Fatal(err)
	}
	var docs [][]any
	for i := 1; i <= 4; i++ {
		docs = append(docs, []any{int64(i), fmt.Sprintf("d%d", i)})
	}
	if _, err := db.InsertBatch("docs", docs); err != nil {
		tb.Fatal(err)
	}
	// 3000 elems: docs 2-4 get 30 each, doc 1 hoards the other 2910.
	var elems [][]any
	for i := 0; i < 3000; i++ {
		doc := int64(1)
		if i < 90 {
			doc = int64(2 + i/30)
		}
		elems = append(elems, []any{int64(i), doc, fmt.Sprintf("t%d", i%5), int64(i % 1000)})
	}
	if _, err := db.InsertBatch("elems", elems); err != nil {
		tb.Fatal(err)
	}
	// 9000 attrs, three per elem.
	var attrs [][]any
	for i := 0; i < 9000; i++ {
		attrs = append(attrs, []any{int64(i), int64(i / 3), fmt.Sprintf("k%d", i%3)})
	}
	if _, err := db.InsertBatch("attrs", attrs); err != nil {
		tb.Fatal(err)
	}
	return db
}

// cboChainSQL is the skewed 3-join chain: written biggest-first, with a
// highly selective predicate on the far end of the chain.
const cboChainSQL = `SELECT COUNT(*) AS n FROM elems e` +
	` JOIN attrs a ON a.elem = e.id` +
	` JOIN docs d ON e.doc = d.id WHERE d.name = 'd3'`

// TestExplainGoldenPlansCBO pins the cost-based planner's choices on
// the skewed chain: the reordered join starting from the one-row docs
// index probe, the small-side hash builds ([build=outer]), the written
// order for contrast, and the range-scan demotion boundary.
// Regenerate with:
// go test ./internal/engine -run TestExplainGoldenPlansCBO -update
func TestExplainGoldenPlansCBO(t *testing.T) {
	db := cboDB(t)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sql  string
		pick joinOrderFunc
	}{
		{"cbo_chain", cboChainSQL, nil},
		{"cbo_chain_written_order", cboChainSQL, inWrittenOrder},
		// val >= 0 keeps every row: the ordered-index window covers the
		// table, so the cost-based planner demotes to a sequential scan.
		{"cbo_range_demote", `SELECT COUNT(*) AS n FROM elems WHERE val >= 0`, nil},
		// val < 40 keeps 120 of 3000 rows: the window stays worthwhile.
		{"cbo_range_keep", `SELECT COUNT(*) AS n FROM elems WHERE val < 40`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := planInOrder(t, db, tc.sql, tc.pick)
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// cboEquivalenceQueries exercises every reordering-sensitive shape:
// multi-join chains, cross joins, LEFT joins above and below inner
// joins, multi-column equis, residual and pushed predicates, ranges,
// DISTINCT and aggregation.
var cboEquivalenceQueries = []string{
	cboChainSQL,
	`SELECT e.id, a.kind, d.name FROM elems e JOIN attrs a ON a.elem = e.id` +
		` JOIN docs d ON e.doc = d.id WHERE d.name = 'd2' AND a.kind = 'k1'`,
	`SELECT d.name, COUNT(*) AS n FROM elems e JOIN attrs a ON a.elem = e.id` +
		` JOIN docs d ON e.doc = d.id GROUP BY d.name ORDER BY d.name`,
	`SELECT COUNT(*) AS n FROM docs d, elems e WHERE e.doc = d.id AND e.val < 10`,
	`SELECT COUNT(*) AS n FROM docs d, elems e, attrs a` +
		` WHERE e.doc = d.id AND a.elem = e.id AND d.name != 'd1'`,
	`SELECT d.name, e.type FROM docs d JOIN elems e ON e.doc = d.id` +
		` WHERE e.val >= 995 ORDER BY d.name, e.type`,
	`SELECT DISTINCT e.type FROM elems e JOIN attrs a ON a.elem = e.id` +
		` WHERE a.kind = 'k2' AND e.val < 5 ORDER BY e.type`,
	`SELECT d.name, e.id FROM docs d LEFT JOIN elems e ON e.doc = d.id AND e.val < 2` +
		` ORDER BY d.name, e.id`,
	`SELECT COUNT(*) AS n FROM elems e JOIN attrs a ON a.elem = e.id` +
		` LEFT JOIN docs d ON e.doc = d.id WHERE e.val < 30`,
	`SELECT COUNT(*) AS n FROM elems e JOIN attrs a ON a.elem = e.id AND a.kind = 'k0'` +
		` JOIN docs d ON e.doc = d.id AND d.name = 'd4'`,
	`SELECT COUNT(*) AS n FROM elems e JOIN elems2 f ON f.val = e.val` +
		` JOIN docs d ON e.doc = d.id WHERE d.name = 'd3' AND f.id < 100`,
	`SELECT e.id FROM elems e JOIN attrs a ON a.elem = e.id` +
		` JOIN docs d ON e.doc = d.id WHERE d.name = 'd3' AND a.kind IN ('k0', 'k1')` +
		` ORDER BY e.id LIMIT 25`,
	// A reorderable three-source prefix under a LEFT JOIN suffix: the
	// suffix stays last whatever order the prefix takes, and a.id 50-89
	// find no elems2 row with val < 50.
	`SELECT e.id, a.kind, f.val FROM elems e JOIN attrs a ON a.elem = e.id` +
		` JOIN docs d ON e.doc = d.id LEFT JOIN elems2 f ON f.id = a.id AND f.val < 50` +
		` WHERE d.name = 'd2'`,
}

// inWrittenOrder joins the inner-join prefix exactly as the query was
// written: the reference every other join order must agree with.
func inWrittenOrder(est []float64, _ []poolCond) []int { return writtenOrder(len(est)) }

// inOrder pins the inner-join prefix to one fixed permutation.
func inOrder(perm []int) joinOrderFunc {
	return func([]float64, []poolCond) []int { return perm }
}

// openInOrder opens a cursor over sql with the inner-join prefix joined
// in the order pick returns (nil: the planner's own choice).
func openInOrder(db *DB, sql string, pick joinOrderFunc) (*selectCursor, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqldb.Select)
	if !ok {
		return nil, fmt.Errorf("not a query: %q", sql)
	}
	ctx := context.Background()
	return db.openSelect(ctx, sel, newCancelCheck(ctx), false, pick)
}

// queryInOrder runs sql joined in the order pick returns.
func queryInOrder(db *DB, sql string, pick joinOrderFunc) (*Rows, error) {
	cur, err := openInOrder(db, sql, pick)
	if err != nil {
		return nil, err
	}
	return DrainCursor(cur)
}

// planInOrder runs sql joined in the order pick returns and renders its
// executed plan in the deterministic rows-only form the golden files
// pin.
func planInOrder(t testing.TB, db *DB, sql string, pick joinOrderFunc) string {
	t.Helper()
	cur, err := openInOrder(db, sql, pick)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return renderPlan(cur.plan, explainRows)
}

// sortedRowsInOrder runs sql joined in the order pick returns and
// renders each row as JSON, sorted: reordered plans may emit rows in a
// different order, but the multiset must match.
func sortedRowsInOrder(t *testing.T, db *DB, sql string, pick joinOrderFunc) []string {
	t.Helper()
	res, err := queryInOrder(db, sql, pick)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	out := make([]string, len(res.Data))
	for i, r := range res.Data {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestCBORowEquivalence is the join-order battery: for every query,
// every permutation of the inner-join prefix and the planner's own
// choice must return the row multiset of the written order — first
// without statistics, then with fresh ANALYZE statistics, which change
// the access paths, estimates and build sides each order is planned
// with.
func TestCBORowEquivalence(t *testing.T) {
	db := cboDB(t)
	// A second large table for the self-join-shaped chain.
	if _, _, err := execSQL(db, `CREATE TABLE elems2 (id INTEGER PRIMARY KEY, val INTEGER)`); err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for i := 0; i < 500; i++ {
		rows = append(rows, []any{int64(i), int64(i % 97)})
	}
	if _, err := db.InsertBatch("elems2", rows); err != nil {
		t.Fatal(err)
	}

	want := make([][]string, len(cboEquivalenceQueries))
	prefix := make([]int, len(cboEquivalenceQueries))
	for qi, sql := range cboEquivalenceQueries {
		want[qi] = sortedRowsInOrder(t, db, sql, func(est []float64, _ []poolCond) []int {
			prefix[qi] = len(est)
			return writtenOrder(len(est))
		})
	}
	for _, phase := range []string{"no stats", "with stats"} {
		if phase == "with stats" {
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
		}
		for qi, sql := range cboEquivalenceQueries {
			check := func(order string, pick joinOrderFunc) {
				got := sortedRowsInOrder(t, db, sql, pick)
				if len(got) != len(want[qi]) {
					t.Errorf("%s, %s: %q returned %d rows, written order %d",
						phase, order, sql, len(got), len(want[qi]))
					return
				}
				for i := range got {
					if got[i] != want[qi][i] {
						t.Errorf("%s, %s: %q row %d = %s, written order %s",
							phase, order, sql, i, got[i], want[qi][i])
						return
					}
				}
			}
			check("planner order", nil)
			for _, perm := range permutations(prefix[qi]) {
				check(fmt.Sprintf("order %v", perm), inOrder(perm))
			}
		}
	}
}

// TestCBOPicksCheaperOrder is the bench-cbo-smoke acceptance check: on
// the skewed chain the cost-based planner must leave the written order
// — starting from the selective docs index probe with a small-side
// hash build — and both orders must agree on the result.
func TestCBOPicksCheaperOrder(t *testing.T) {
	db := cboDB(t)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	written := planInOrder(t, db, cboChainSQL, inWrittenOrder)
	wantRows, err := queryInOrder(db, cboChainSQL, inWrittenOrder)
	if err != nil {
		t.Fatal(err)
	}
	costed := planRows(t, db, cboChainSQL)
	gotRows := queryData(t, db, cboChainSQL)
	if costed == written {
		t.Fatalf("cost-based planner kept the written join order:\n%s", costed)
	}
	if !strings.Contains(costed, "IndexScan(docs AS d via docs_name)") {
		t.Errorf("cost-based plan does not probe the selective docs index:\n%s", costed)
	}
	if !strings.Contains(costed, "[build=outer]") {
		t.Errorf("cost-based plan never builds on the smaller outer side:\n%s", costed)
	}
	if len(gotRows) != 1 || len(wantRows.Data) != 1 || gotRows[0][0] != wantRows.Data[0][0] {
		t.Fatalf("join orders disagree: cost=%v written=%v", gotRows, wantRows.Data)
	}
	// The written order joins the 3000-row elems scan to the 9000-row
	// attrs table before the one-row docs probe can prune anything.
	if !strings.Contains(written, "SeqScan(elems AS e) (est=3000") {
		t.Errorf("written-order plan no longer anchors on the elems scan:\n%s", written)
	}
}

// BenchmarkCBOJoinChain measures the skewed chain joined in written
// order and in the cost-based planner's order; bench-cbo-smoke runs one
// iteration of each as a CI gate.
func BenchmarkCBOJoinChain(b *testing.B) {
	db := cboDB(b)
	if err := db.Analyze(); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, pick joinOrderFunc) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := queryInOrder(db, cboChainSQL, pick)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows.Data) != 1 || rows.Data[0][0] != int64(90) {
				b.Fatalf("got %v, want count 90", rows.Data)
			}
		}
	}
	b.Run("written_order", func(b *testing.B) { run(b, inWrittenOrder) })
	b.Run("costbased", func(b *testing.B) { run(b, nil) })
}

// TestWideChainJoin covers a join chain longer than the 64 sources the
// greedy ordering's bitsets address: the planner keeps the written
// order and still applies each condition, whether written in ON or in
// WHERE, at the join that completes its bindings.
func TestWideChainJoin(t *testing.T) {
	const n = 65
	db := Open()
	for i := 0; i < n; i++ {
		if _, _, err := execSQL(db, fmt.Sprintf(`CREATE TABLE t%d (id INTEGER PRIMARY KEY, p INTEGER)`, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertBatch(fmt.Sprintf("t%d", i), [][]any{{int64(1), int64(1)}, {int64(2), int64(2)}}); err != nil {
			t.Fatal(err)
		}
	}
	var on, from, where strings.Builder
	on.WriteString("SELECT COUNT(*) FROM t0")
	from.WriteString("SELECT COUNT(*) FROM t0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&on, " JOIN t%d ON t%d.p = t%d.id", i, i, i-1)
		fmt.Fprintf(&from, ", t%d", i)
		if i > 1 {
			where.WriteString(" AND ")
		}
		fmt.Fprintf(&where, "t%d.p = t%d.id", i, i-1)
	}
	for _, sql := range []string{on.String(), from.String() + " WHERE " + where.String()} {
		got := queryData(t, db, sql)
		if len(got) != 1 || got[0][0] != int64(2) {
			t.Fatalf("%d-table chain returned %v, want [[2]]", n, got)
		}
		plan, err := db.ExplainQueryContext(context.Background(), sql)
		if err != nil {
			t.Fatalf("EXPLAIN: %v", err)
		}
		if joins := strings.Count(plan, "HashJoin on"); joins != n-1 {
			t.Errorf("plan has %d hash joins, want %d:\n%s", joins, n-1, plan)
		}
	}
}

// TestStatsBuild pins the ANALYZE statistics themselves: row counts,
// distinct and NULL counts, min/max bounds and the equi-depth
// histogram invariants.
func TestStatsBuild(t *testing.T) {
	db := Open()
	err := execScript(db, `
CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, score INTEGER);
`)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for i := 0; i < 200; i++ {
		var grp any
		if i%10 != 0 { // 20 NULLs
			grp = fmt.Sprintf("g%d", i%7)
		}
		rows = append(rows, []any{int64(i), grp, int64(i * 2)})
	}
	if _, err := db.InsertBatch("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.AnalyzeTable("t"); err != nil {
		t.Fatal(err)
	}
	ts := db.TableStatsSnapshot("t")
	if ts == nil || ts.Rows != 200 {
		t.Fatalf("stats = %+v, want 200 rows", ts)
	}
	id, grp, score := ts.Cols[0], ts.Cols[1], ts.Cols[2]
	if id.Distinct != 200 || *id.NumMin != 0 || *id.NumMax != 199 {
		t.Errorf("id stats = %+v", id)
	}
	if grp.Distinct != 7 || grp.Nulls != 20 {
		t.Errorf("grp stats = %+v, want 7 distinct / 20 nulls", grp)
	}
	if grp.StrMin != "g0" || grp.StrMax != "g6" || !grp.HasStr {
		t.Errorf("grp bounds = %q..%q", grp.StrMin, grp.StrMax)
	}
	if *score.NumMax != 398 {
		t.Errorf("score max = %v, want 398", *score.NumMax)
	}
	// Histogram: counts sum to the non-NULL numeric count, His strictly
	// increase, last Hi is the max.
	var sum int64
	lastHi := *score.NumMin - 1
	for _, b := range score.Hist {
		if b.Hi <= lastHi {
			t.Fatalf("histogram His not increasing: %v", score.Hist)
		}
		lastHi = b.Hi
		sum += b.Count
	}
	if sum != 200 || lastHi != *score.NumMax {
		t.Errorf("histogram sum=%d lastHi=%v, want 200 / %v", sum, lastHi, *score.NumMax)
	}
	// fracLE is monotone and hits the extremes.
	if f, ok := score.fracLE(*score.NumMin - 1); !ok || f != 0 {
		t.Errorf("fracLE(min-1) = %v, %v", f, ok)
	}
	if f, ok := score.fracLE(*score.NumMax); !ok || f != 1 {
		t.Errorf("fracLE(max) = %v, %v", f, ok)
	}
	if lo, _ := score.fracLE(100); lo < 0.2 || lo > 0.32 {
		t.Errorf("fracLE(100) = %v, want ~0.25", lo)
	}
}

// TestStatsDurability proves statistics survive both recovery paths:
// WAL replay of the combined frameStats record, and the snapshot
// header after a checkpoint.
func TestStatsDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := execSQL(db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'n%d')`, i, i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeTable("t"); err != nil {
		t.Fatal(err)
	}
	want := db.TableStatsSnapshot("t")
	if want == nil {
		t.Fatal("no stats after ANALYZE")
	}
	if db.StatsEpoch() == 0 {
		t.Fatal("stats epoch did not advance on ANALYZE")
	}
	fresh := db.StatsFreshnessReport()["t"]
	if !fresh.Analyzed || fresh.ChangesSince != 0 || fresh.Rows != 50 {
		t.Fatalf("freshness after ANALYZE = %+v", fresh)
	}
	if _, _, err := execSQL(db, `INSERT INTO t VALUES (50, 'later')`); err != nil {
		t.Fatal(err)
	}
	if got := db.StatsFreshnessReport()["t"].ChangesSince; got != 1 {
		t.Fatalf("ChangesSince after one insert = %d, want 1", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	assertStats := func(step string, db *DB) {
		t.Helper()
		got := db.TableStatsSnapshot("t")
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("%s: stats = %s, want %s", step, gb, wb)
		}
	}
	// WAL replay path.
	db, err = OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertStats("after WAL replay", db)
	// Snapshot path: checkpoint truncates the log, so the reopened store
	// reads the stats out of the snapshot header.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertStats("after snapshot load", db)
}

// TestPredSelectivity pins the selectivity model the join ordering and
// scan hints run on.
func TestPredSelectivity(t *testing.T) {
	db := cboDB(t)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Estimates surface through plan hints; check them end to end via
	// EXPLAIN rather than poking internals: an equality on a 5-distinct
	// column over 3000 rows should estimate ~600.
	plan := planRows(t, db, `SELECT id FROM elems WHERE type = 't0'`)
	if !strings.Contains(plan, "est=600") {
		t.Errorf("equality estimate missing (want est=600):\n%s", plan)
	}
	// A histogram range: val < 100 keeps ~300 of 3000 (val cycles
	// 0..999); the window stays an index range scan with an exact count.
	plan = planRows(t, db, `SELECT id FROM elems WHERE val < 100 AND type = 't1'`)
	if !strings.Contains(plan, "RangeScan(elems via elems_val)") {
		t.Errorf("selective range not scanned via ordered index:\n%s", plan)
	}
}
