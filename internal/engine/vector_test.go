package engine

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/obs"
)

// vecDB builds a table with enough rows and value shapes (repeated
// strings, NULLs in two columns, integer spread) to exercise every
// vectorized kernel, plus a deterministic seed so failures reproduce.
func vecDB(tb testing.TB, rows int) *DB {
	tb.Helper()
	db := Open()
	err := execScript(db, `
CREATE TABLE ev (id INTEGER PRIMARY KEY, tag TEXT, val TEXT NOT NULL, n INTEGER);
`)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	tags := []string{"alpha", "beta", "gamma", "delta"}
	const chunk = 2000
	for at := 0; at < rows; at += chunk {
		k := chunk
		if at+k > rows {
			k = rows - at
		}
		batch := make([][]any, k)
		for i := range batch {
			id := at + i
			var tag any
			if rng.Intn(10) != 0 { // ~10% NULL tags
				tag = tags[rng.Intn(len(tags))]
			}
			var n any
			if rng.Intn(20) != 0 { // ~5% NULL n
				n = rng.Intn(1000)
			}
			batch[i] = []any{id, tag, fmt.Sprintf("v%d", id%97), n}
		}
		if _, err := db.InsertBatch("ev", batch); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// vecEquivalenceQueries covers the vectorized shapes (dict and value
// kernels, grouped and global aggregates, projections under LIMIT) and
// shapes that must fall back — both paths have to agree on all of them.
var vecEquivalenceQueries = []string{
	`SELECT COUNT(*) FROM ev`,
	`SELECT COUNT(*) FROM ev WHERE tag = 'beta'`,
	`SELECT COUNT(*) FROM ev WHERE tag != 'beta'`,
	`SELECT COUNT(*) FROM ev WHERE tag IN ('alpha', 'gamma')`,
	`SELECT COUNT(*) FROM ev WHERE tag NOT IN ('alpha', 'gamma')`,
	`SELECT COUNT(*) FROM ev WHERE tag IS NULL`,
	`SELECT COUNT(*) FROM ev WHERE tag IS NOT NULL`,
	`SELECT COUNT(*) FROM ev WHERE tag = 'no-such-tag'`,
	`SELECT COUNT(*) FROM ev WHERE tag = 7`,
	`SELECT COUNT(*) FROM ev WHERE n >= 500`,
	`SELECT COUNT(*) FROM ev WHERE n < 500 AND tag = 'alpha'`,
	`SELECT tag, COUNT(*) AS c, SUM(n) AS s, AVG(n) AS a, MIN(n) AS lo, MAX(n) AS hi
	   FROM ev GROUP BY tag ORDER BY tag`,
	`SELECT tag, COUNT(n) AS c FROM ev WHERE n >= 100 GROUP BY tag ORDER BY c DESC, tag`,
	`SELECT val, COUNT(*) AS c FROM ev GROUP BY val ORDER BY val LIMIT 10`,
	`SELECT tag, val, COUNT(*) AS c FROM ev WHERE tag IN ('alpha', 'beta')
	   GROUP BY tag, val ORDER BY tag, val LIMIT 25`,
	`SELECT MIN(val) AS lo, MAX(val) AS hi, COUNT(*) AS c FROM ev`,
	`SELECT SUM(n) FROM ev WHERE tag = 'nothing-matches'`,
	`SELECT id, val FROM ev WHERE tag = 'gamma' ORDER BY id LIMIT 20`,
	`SELECT id FROM ev WHERE n IS NULL ORDER BY id LIMIT 20`,
	`SELECT val FROM ev LIMIT 3`,
	`SELECT val FROM ev ORDER BY id DESC LIMIT 5 OFFSET 2`,
	`SELECT DISTINCT tag FROM ev ORDER BY tag`,
	// Fallback shapes (LIKE, expressions, joins stay row-at-a-time).
	`SELECT COUNT(*) FROM ev WHERE val LIKE 'v1%'`,
	`SELECT id, n + 1 AS m FROM ev WHERE n > 990 ORDER BY id LIMIT 10`,
}

func runEquivalence(t *testing.T, db *DB) {
	t.Helper()
	for _, sql := range vecEquivalenceQueries {
		db.SetVectorized(true)
		vec, err := querySQL(db, sql)
		if err != nil {
			t.Fatalf("vec %q: %v", sql, err)
		}
		db.SetVectorized(false)
		row, err := querySQL(db, sql)
		if err != nil {
			t.Fatalf("row %q: %v", sql, err)
		}
		db.SetVectorized(true)
		if !reflect.DeepEqual(vec.Cols, row.Cols) || !reflect.DeepEqual(vec.Data, row.Data) {
			t.Errorf("%q: vectorized and row-at-a-time disagree\nvec: %v\nrow: %v",
				sql, vec.Data, row.Data)
		}
	}
}

// TestVecRowEquivalence pins the acceptance bar: the batched path must
// return byte-identical results to the row-at-a-time path on every
// supported and fallback shape — before ANALYZE (value kernels), after
// ANALYZE (dictionary kernels), and after post-ANALYZE writes (overlay
// dictionaries).
func TestVecRowEquivalence(t *testing.T) {
	db := vecDB(t, 5000)
	runEquivalence(t, db)

	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, db)

	// Post-ANALYZE writes: new strings outside the persisted dictionary,
	// plus deletes (holes in the code vector).
	if _, _, err := execSQL(db, `INSERT INTO ev VALUES (100001, 'epsilon', 'fresh', 7)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `DELETE FROM ev WHERE id < 50`); err != nil {
		t.Fatal(err)
	}
	runEquivalence(t, db)
	if got := queryData(t, db, `SELECT COUNT(*) FROM ev WHERE tag = 'epsilon'`); got[0][0] != int64(1) {
		t.Errorf("overlay value not found: %v", got)
	}
}

// TestDictRoundTrip is the codec property: for every analyzed column,
// decoding each row's code through the dictionary reproduces the stored
// value exactly, and dictNull appears iff the value is SQL NULL.
func TestDictRoundTrip(t *testing.T) {
	db := vecDB(t, 3000)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Post-ANALYZE values must round-trip through the overlay too.
	if _, _, err := execSQL(db, `INSERT INTO ev VALUES (100001, 'omega', 'overlay-only', NULL)`); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	tbl := db.tables["ev"]
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	ver := tbl.capture(db.clock.Load())
	defer ver.release()
	vc := ver.sidecar()
	encoded := 0
	for c, codes := range vc.codes {
		if codes == nil {
			continue
		}
		encoded++
		d := vc.dicts[c]
		if len(codes) != len(tbl.rows) {
			t.Fatalf("col %d: %d codes for %d rows", c, len(codes), len(tbl.rows))
		}
		for pos, row := range tbl.rows {
			switch {
			case row == nil || row[c] == nil:
				if codes[pos] != dictNull {
					t.Fatalf("col %d pos %d: NULL coded as %d", c, pos, codes[pos])
				}
			case codes[pos] == dictNull:
				t.Fatalf("col %d pos %d: value %v coded as NULL", c, pos, row[c])
			case int(codes[pos]) >= len(d.vals):
				t.Fatalf("col %d pos %d: code %d out of range %d", c, pos, codes[pos], len(d.vals))
			case d.vals[codes[pos]] != row[c].(string):
				t.Fatalf("col %d pos %d: code %d decodes to %q, row holds %q",
					c, pos, codes[pos], d.vals[codes[pos]], row[c])
			}
		}
	}
	if encoded != 2 { // tag and val are TEXT; id and n are not
		t.Errorf("encoded %d columns, want 2", encoded)
	}
}

// TestDictRecovery proves dictionaries are durable state: they survive
// WAL replay, travel inside snapshots, and the recovered store is
// exactly (dumpState-identical to) the pre-crash store — including
// values inserted after ANALYZE that only the overlay knows.
func TestDictRecovery(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("data", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := execScript(db, `
CREATE TABLE ev (id INTEGER PRIMARY KEY, tag TEXT, val TEXT NOT NULL);
INSERT INTO ev VALUES (1, 'alpha', 'x'), (2, 'beta', 'y'), (3, NULL, 'x');
`); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Snapshot with dictionary sections, then post-snapshot WAL traffic:
	// rows with out-of-dictionary strings and a second ANALYZE frame.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `INSERT INTO ev VALUES (4, 'gamma', 'z')`); err != nil {
		t.Fatal(err)
	}
	if err := db.AnalyzeTable("ev"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execSQL(db, `INSERT INTO ev VALUES (5, 'delta', 'w')`); err != nil {
		t.Fatal(err)
	}
	want := dumpState(db)
	wantRows := queryData(t, db, `SELECT tag, COUNT(*) AS c FROM ev GROUP BY tag ORDER BY tag`)
	db.Close()

	re, err := OpenAtOpts("data", DurabilityOptions{FS: fs, VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpState(re); got != want {
		t.Fatalf("recovered state differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if ds := re.DictStats("ev"); ds["tag"] != 3 || ds["val"] != 3 {
		t.Errorf("recovered dict stats = %v", ds)
	}
	if got := queryData(t, re, `SELECT tag, COUNT(*) AS c FROM ev GROUP BY tag ORDER BY tag`); !reflect.DeepEqual(got, wantRows) {
		t.Errorf("recovered query = %v, want %v", got, wantRows)
	}

	// A second checkpoint from the recovered store must also round-trip
	// (snapshot v2 dictionaries re-encode what recovery decoded).
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenAtOpts("data", DurabilityOptions{FS: fs, VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := dumpState(re2); got != want {
		t.Fatalf("post-checkpoint recovery differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestDictSnapshotCompression pins the other half of the dictionary
// payoff: a snapshot of an analyzed store (codes instead of repeated
// strings) is measurably smaller than the unanalyzed snapshot of the
// same data.
func TestDictSnapshotCompression(t *testing.T) {
	load := func(analyze bool) int64 {
		fs := faultfs.NewMem()
		db, err := OpenAtOpts("data", DurabilityOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, _, err := execSQL(db, `CREATE TABLE ev (id INTEGER PRIMARY KEY, tag TEXT NOT NULL)`); err != nil {
			t.Fatal(err)
		}
		batch := make([][]any, 5000)
		for i := range batch {
			batch[i] = []any{i, fmt.Sprintf("repeated-tag-value-%d", i%8)}
		}
		if _, err := db.InsertBatch("ev", batch); err != nil {
			t.Fatal(err)
		}
		if analyze {
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		names, err := fs.List("data")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !strings.HasSuffix(name, ".snap") {
				continue
			}
			f, err := fs.Open("data/" + name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			return int64(len(data))
		}
		t.Fatal("no snapshot written")
		return 0
	}
	plain := load(false)
	encoded := load(true)
	if encoded >= plain*2/3 {
		t.Errorf("dictionary snapshot %d bytes, plain %d: want at least 1/3 smaller", encoded, plain)
	}
}

// TestVecExplainAndMetrics pins the observability surface: executed
// EXPLAIN carries the [vec] marker with batch counts, the metrics hub
// counts batches and per-batch rows, and an unvectorizable shape counts
// a fallback.
func TestVecExplainAndMetrics(t *testing.T) {
	db := vecDB(t, 5000)
	m := obs.New()
	db.SetMetrics(m)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}

	plan := planRows(t, db, `SELECT tag, COUNT(*) AS c FROM ev GROUP BY tag ORDER BY tag`)
	if !strings.Contains(plan, "[vec, batch<=1024]") || !strings.Contains(plan, "batches=") {
		t.Errorf("EXPLAIN lacks vec markers:\n%s", plan)
	}

	s := m.Snapshot()
	if s.Engine.VecBatches < 5 { // 5000 rows / 1024 with the ramp
		t.Errorf("VecBatches = %d, want >= 5", s.Engine.VecBatches)
	}
	if s.Engine.VecBatchRows.Count == 0 {
		t.Error("VecBatchRows histogram empty")
	}
	if s.Engine.VecFallbacks != 0 {
		t.Errorf("VecFallbacks = %d before any fallback", s.Engine.VecFallbacks)
	}

	if _, err := querySQL(db, `SELECT COUNT(*) FROM ev WHERE val LIKE 'v1%'`); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Engine.VecFallbacks; got == 0 {
		t.Error("LIKE pipeline did not count a vec fallback")
	}
}

// TestVecBatchRamp checks the adaptive batch sizing: a tiny LIMIT reads
// one small batch instead of a full 1024-row vector, and a full scan
// ramps 64 → 256 → 1024.
func TestVecBatchRamp(t *testing.T) {
	db := vecDB(t, 5000)

	plan := planRows(t, db, `SELECT val FROM ev LIMIT 3`)
	if !strings.Contains(plan, "batches=1 rows/batch=3") {
		t.Errorf("LIMIT 3 should read one 3-row batch:\n%s", plan)
	}

	plan = planRows(t, db, `SELECT tag, COUNT(*) AS c FROM ev GROUP BY tag`)
	// 5000 rows: 64 + 256 + 1024 + 1024 + 1024 + 1024 + 584 = 7 batches.
	if !strings.Contains(plan, "batches=7") {
		t.Errorf("full aggregate should ramp to 7 batches:\n%s", plan)
	}
}

// TestVecConcurrent hammers the vectorized path from many goroutines
// while writers concurrently invalidate and force rebuilds of the
// columnar sidecar. Run under -race this is the data-race proof for the
// vecCache publish/invalidate protocol.
func TestVecConcurrent(t *testing.T) {
	db := vecDB(t, 2000)
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := querySQL(db, `SELECT tag, COUNT(*) AS c, MAX(val) AS m FROM ev GROUP BY tag`); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sql := fmt.Sprintf(`INSERT INTO ev VALUES (%d, 'writer', 'w%d', %d)`, 200000+i, i, i)
			if _, _, err := execSQL(db, sql); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := queryData(t, db, `SELECT COUNT(*) FROM ev WHERE tag = 'writer'`); got[0][0] != int64(50) {
		t.Errorf("writer rows = %v, want 50", got[0][0])
	}
}

// BenchmarkVecAggregate is the E14 micro form: a scan-heavy grouped
// aggregate over 100k rows, per executor configuration. Every iteration
// re-checks the result against the row-at-a-time answer, so the
// one-iteration smoke run (make bench-vec-smoke) fails outright if the
// batched path ever diverges.
func BenchmarkVecAggregate(b *testing.B) {
	db := vecDB(b, 100_000)
	const sql = `SELECT tag, COUNT(*) AS c, SUM(n) AS s, MIN(n) AS lo, MAX(n) AS hi
	  FROM ev GROUP BY tag ORDER BY tag`
	db.SetVectorized(false)
	want, err := querySQL(db, sql)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := querySQL(db, sql)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(got.Data, want.Data) {
				b.Fatalf("result diverged:\ngot  %v\nwant %v", got.Data, want.Data)
			}
		}
	}
	b.Run("row", func(b *testing.B) {
		db.SetVectorized(false)
		run(b)
	})
	b.Run("vec", func(b *testing.B) {
		db.SetVectorized(true)
		run(b)
	})
	b.Run("vec-dict", func(b *testing.B) {
		db.SetVectorized(true)
		if err := db.Analyze(); err != nil {
			b.Fatal(err)
		}
		run(b)
	})
}
