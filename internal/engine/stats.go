package engine

import (
	"encoding/json"
	"fmt"
	"sort"

	"xmlrdb/internal/sqldb"
)

// Table statistics for the cost-based planner. ANALYZE walks each
// table's live rows once and records, per column, the distinct-value
// and NULL counts, the min/max, and a small equi-depth histogram over
// the numeric values. The planner (plan.go) turns these into
// selectivity estimates for pushed predicates and into join-output
// cardinalities for reordering multi-join chains; without them it falls
// back to live row counts and fixed default selectivities.
//
// Statistics are durable exactly like the dictionaries built by the
// same ANALYZE pass: the combined result is logged as one frameStats
// WAL record before installation (one frame per ANALYZE keeps the
// crash matrix's op-level atomicity), and travels inside snapshots as
// part of the per-table JSON header; a header without a stats field
// simply leaves the table unanalyzed for costing.

// statsHistBuckets is the equi-depth histogram resolution. Sixteen
// buckets bound the per-column footprint while still resolving the
// skew the shredded corpora exhibit (document-id clustering, hot
// element types).
const statsHistBuckets = 16

// Default selectivities when no statistic can answer (matching the
// planner's historical shrink(in)=in/3 temperament for ranges).
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3
	defaultLikeSel  = 0.25
	minSelectivity  = 1e-4
)

// HistBucket is one equi-depth histogram bucket: Count values fall in
// (previous bucket's Hi, Hi]; the first bucket's lower bound is the
// column minimum.
type HistBucket struct {
	Hi    float64 `json:"hi"`
	Count int64   `json:"n"`
}

// ColumnStats summarizes one column's value distribution at ANALYZE
// time.
type ColumnStats struct {
	// Distinct counts distinct non-NULL values; Nulls counts NULL ones.
	Distinct int64 `json:"distinct"`
	Nulls    int64 `json:"nulls,omitempty"`
	// NumMin/NumMax bound the numeric values (INTEGER and REAL columns,
	// or the numeric values of a mixed column); nil when none exist.
	NumMin *float64 `json:"num_min,omitempty"`
	NumMax *float64 `json:"num_max,omitempty"`
	// StrMin/StrMax bound the string values ("" when none exist —
	// HasStr disambiguates a genuine empty-string bound).
	StrMin string `json:"str_min,omitempty"`
	StrMax string `json:"str_max,omitempty"`
	HasStr bool   `json:"has_str,omitempty"`
	// Hist is the equi-depth histogram over the numeric values.
	Hist []HistBucket `json:"hist,omitempty"`
}

// TableStats is the ANALYZE result for one table.
type TableStats struct {
	// Rows counts live rows at ANALYZE time.
	Rows int64 `json:"rows"`
	// Cols is aligned to the table's column list; nil entries mean the
	// column had no analyzable values.
	Cols []*ColumnStats `json:"cols"`
}

// clone returns an independent copy (accessors hand copies out so the
// installed stats stay immutable).
func (ts *TableStats) clone() *TableStats {
	if ts == nil {
		return nil
	}
	cp := &TableStats{Rows: ts.Rows, Cols: make([]*ColumnStats, len(ts.Cols))}
	for i, cs := range ts.Cols {
		if cs == nil {
			continue
		}
		c := *cs
		c.Hist = append([]HistBucket(nil), cs.Hist...)
		if cs.NumMin != nil {
			v := *cs.NumMin
			c.NumMin = &v
		}
		if cs.NumMax != nil {
			v := *cs.NumMax
			c.NumMax = &v
		}
		cp.Cols[i] = &c
	}
	return cp
}

// buildStatsLocked computes fresh statistics from the table's live
// rows. Deterministic for a given row state (counts and sorted
// quantiles only), so WAL replay installing the logged copy and a
// hypothetical rebuild agree. Caller holds the table's write lock.
func buildStatsLocked(t *table) *TableStats {
	ncols := len(t.def.Columns)
	ts := &TableStats{Cols: make([]*ColumnStats, ncols)}
	type colAcc struct {
		distinct map[any]struct{}
		nulls    int64
		nums     []float64
		strMin   string
		strMax   string
		hasStr   bool
	}
	accs := make([]colAcc, ncols)
	for c := range accs {
		accs[c].distinct = make(map[any]struct{})
	}
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		ts.Rows++
		for c := 0; c < ncols && c < len(row); c++ {
			v := row[c]
			a := &accs[c]
			if v == nil {
				a.nulls++
				continue
			}
			a.distinct[v] = struct{}{}
			switch x := v.(type) {
			case int64:
				a.nums = append(a.nums, float64(x))
			case float64:
				a.nums = append(a.nums, x)
			case string:
				if !a.hasStr || x < a.strMin {
					a.strMin = x
				}
				if !a.hasStr || x > a.strMax {
					a.strMax = x
				}
				a.hasStr = true
			}
		}
	}
	for c := range accs {
		a := &accs[c]
		if len(a.distinct) == 0 && a.nulls == 0 {
			continue // column never held a value
		}
		cs := &ColumnStats{Distinct: int64(len(a.distinct)), Nulls: a.nulls}
		if a.hasStr {
			cs.StrMin, cs.StrMax, cs.HasStr = a.strMin, a.strMax, true
		}
		if len(a.nums) > 0 {
			sort.Float64s(a.nums)
			lo, hi := a.nums[0], a.nums[len(a.nums)-1]
			cs.NumMin, cs.NumMax = &lo, &hi
			cs.Hist = buildHistogram(a.nums)
		}
		ts.Cols[c] = cs
	}
	return ts
}

// buildHistogram builds an equi-depth histogram over sorted values:
// each bucket holds roughly len(vals)/statsHistBuckets values, with
// runs of one value never split across buckets (so a bucket boundary
// is always the last occurrence of its Hi).
func buildHistogram(vals []float64) []HistBucket {
	n := len(vals)
	buckets := statsHistBuckets
	if buckets > n {
		buckets = n
	}
	var hist []HistBucket
	start := 0
	for b := 0; b < buckets && start < n; b++ {
		end := (b + 1) * n / buckets
		if end <= start {
			end = start + 1
		}
		hi := vals[end-1]
		// Extend over the rest of the run so Hi bounds its bucket.
		for end < n && vals[end] == hi {
			end++
		}
		hist = append(hist, HistBucket{Hi: hi, Count: int64(end - start)})
		start = end
	}
	return hist
}

// fracLE estimates the fraction of the column's non-NULL numeric
// values that are <= x, interpolating linearly inside the containing
// bucket. ok is false when the column has no histogram.
func (cs *ColumnStats) fracLE(x float64) (float64, bool) {
	if cs == nil || len(cs.Hist) == 0 || cs.NumMin == nil {
		return 0, false
	}
	var total int64
	for _, b := range cs.Hist {
		total += b.Count
	}
	if total == 0 {
		return 0, false
	}
	if x < *cs.NumMin {
		return 0, true
	}
	lo := *cs.NumMin
	var below int64
	for _, b := range cs.Hist {
		if x >= b.Hi {
			below += b.Count
			lo = b.Hi
			continue
		}
		frac := 1.0
		if b.Hi > lo {
			frac = (x - lo) / (b.Hi - lo)
		}
		return (float64(below) + frac*float64(b.Count)) / float64(total), true
	}
	return 1, true
}

// ---- installation, durability and bookkeeping ----

// StatsEpoch returns the database's statistics epoch: it advances every
// time any table's statistics are (re)installed — by ANALYZE, WAL
// replay or snapshot load. Plan caches key on it so plans compiled
// against stale statistics age out the moment fresher ones land.
func (db *DB) StatsEpoch() uint64 { return db.statsClock.Load() }

// TableStatsSnapshot returns a copy of one table's ANALYZE statistics,
// or nil when the table does not exist or was never analyzed.
func (db *DB) TableStatsSnapshot(name string) *TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[name]
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats.clone()
}

// StatsFreshness reports how stale one table's statistics are.
type StatsFreshness struct {
	// Analyzed reports whether the table has statistics at all.
	Analyzed bool `json:"analyzed"`
	// Rows is the statistics' recorded live-row count (0 when not
	// analyzed).
	Rows int64 `json:"rows,omitempty"`
	// ChangesSince counts committed mutations against the table since
	// its last ANALYZE (every mutation since open when never analyzed).
	ChangesSince int64 `json:"changes_since_analyze"`
}

// StatsFreshnessReport returns per-table statistics freshness, keyed by
// table name, for every table in creation order.
func (db *DB) StatsFreshnessReport() map[string]StatsFreshness {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]StatsFreshness, len(db.order))
	for _, name := range db.order {
		t := db.tables[name]
		t.mu.RLock()
		fr := StatsFreshness{ChangesSince: t.statsMuts.Load()}
		if t.stats != nil {
			fr.Analyzed = true
			fr.Rows = t.stats.Rows
		}
		t.mu.RUnlock()
		out[name] = fr
	}
	return out
}

// installStatsLocked publishes new statistics on a table: resets the
// staleness counter and advances the database's stats epoch. Caller
// holds the table's write lock.
func (db *DB) installStatsLocked(t *table, ts *TableStats) {
	t.stats = ts
	t.statsMuts.Store(0)
	db.statsClock.Add(1)
}

// ---- WAL frame (frameStats) ----

// statsPayload is the JSON tail of a frameStats record. The dictionary
// section is binary (dict.go); statistics are rare and self-describing
// JSON keeps them debuggable, like DDL records.
type statsPayload struct {
	Stats *TableStats `json:"stats"`
}

// encodeStatsFrame serializes one ANALYZE result: the dictionary
// section (table, per-column dictionaries) followed by a length-prefixed
// JSON statsPayload. One frame carries the whole ANALYZE so recovery
// can never observe dictionaries without their statistics.
func encodeStatsFrame(table string, dicts []*colDict, ts *TableStats) ([]byte, error) {
	buf := encodeDictSection(table, dicts)
	js, err := json.Marshal(statsPayload{Stats: ts})
	if err != nil {
		return nil, err
	}
	buf = appendWALString(buf, string(js))
	return buf, nil
}

func (db *DB) logStats(table string, dicts []*colDict, ts *TableStats) error {
	if db.wal == nil {
		return nil
	}
	payload, err := encodeStatsFrame(table, dicts, ts)
	if err != nil {
		return err
	}
	return db.wal.append(frameStats, payload)
}

// applyStatsFrame re-installs a logged ANALYZE (dictionaries plus
// statistics) during recovery.
func (db *DB) applyStatsFrame(r *walReader) error {
	name, dicts, err := decodeDictSection(r)
	if err != nil {
		return err
	}
	js, err := r.str()
	if err != nil {
		return err
	}
	var p statsPayload
	if err := json.Unmarshal([]byte(js), &p); err != nil {
		return fmt.Errorf("engine: corrupt stats frame: %w", err)
	}
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	if len(dicts) != len(t.def.Columns) {
		return errWALCorrupt
	}
	if p.Stats != nil && len(p.Stats.Cols) != len(t.def.Columns) {
		return errWALCorrupt
	}
	t.dicts = dicts
	t.invalidateVersion()
	db.installStatsLocked(t, p.Stats)
	return nil
}

// ---- selectivity estimation (used by plan.go) ----

// colStatsFor resolves a column name on a source to its statistics (nil
// when unanalyzed). Caller holds the open-time locks.
func colStatsFor(src source, colName string) (*ColumnStats, int64) {
	ts := src.t.stats
	if ts == nil {
		return nil, 0
	}
	_, pos := src.t.def.Column(colName)
	if pos < 0 || pos >= len(ts.Cols) {
		return nil, ts.Rows
	}
	return ts.Cols[pos], ts.Rows
}

// distinctOf estimates a column's distinct-value count: ANALYZE
// statistics first, the column's dictionary second, the source's live
// row count (every-value-distinct, the right guess for keys) last.
func distinctOf(src source, colName string) float64 {
	if cs, _ := colStatsFor(src, colName); cs != nil && cs.Distinct > 0 {
		return float64(cs.Distinct)
	}
	if _, pos := src.t.def.Column(colName); pos >= 0 && pos < len(src.t.dicts) {
		if d := src.t.dicts[pos]; d != nil && d.size() > 0 {
			return float64(d.size())
		}
	}
	if n := len(src.ver.rows); n > 0 {
		return float64(n)
	}
	return 1
}

// predSelectivity estimates the fraction of a source's rows one pushed
// predicate keeps. Conjunct lists multiply (independence assumption);
// the result is clamped to [minSelectivity, 1].
func predSelectivity(p sqldb.Expr, src source) float64 {
	sel := rawPredSelectivity(p, src)
	if sel < minSelectivity {
		sel = minSelectivity
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func rawPredSelectivity(p sqldb.Expr, src source) float64 {
	switch x := p.(type) {
	case *sqldb.Bin:
		return binSelectivity(x, src)
	case *sqldb.Not:
		return 1 - predSelectivity(x.X, src)
	case *sqldb.IsNull:
		c, ok := x.X.(*sqldb.Col)
		if !ok {
			return defaultRangeSel
		}
		cs, rows := colStatsFor(src, c.Name)
		if cs == nil || rows == 0 {
			return defaultEqSel
		}
		frac := float64(cs.Nulls) / float64(rows)
		if x.Negate {
			return 1 - frac
		}
		return frac
	case *sqldb.In:
		c, ok := x.X.(*sqldb.Col)
		if !ok {
			return defaultRangeSel
		}
		sel := float64(len(x.List)) / distinctOf(src, c.Name)
		if x.Negate {
			return 1 - sel
		}
		return sel
	case *sqldb.Like:
		if x.Negate {
			return 1 - defaultLikeSel
		}
		return defaultLikeSel
	}
	return defaultRangeSel
}

func binSelectivity(b *sqldb.Bin, src source) float64 {
	switch b.Op {
	case sqldb.OpAnd:
		return predSelectivity(b.L, src) * predSelectivity(b.R, src)
	case sqldb.OpOr:
		l, r := predSelectivity(b.L, src), predSelectivity(b.R, src)
		return l + r - l*r
	}
	col, lit := asColLit(b.L, b.R)
	flipped := false
	if col == nil {
		col, lit = asColLit(b.R, b.L)
		flipped = true
	}
	if col == nil {
		return defaultRangeSel
	}
	op := b.Op
	if flipped {
		// lit OP col: mirror the comparison so col is on the left.
		switch op {
		case sqldb.OpLt:
			op = sqldb.OpGt
		case sqldb.OpLe:
			op = sqldb.OpGe
		case sqldb.OpGt:
			op = sqldb.OpLt
		case sqldb.OpGe:
			op = sqldb.OpLe
		}
	}
	switch op {
	case sqldb.OpEq:
		return 1 / distinctOf(src, col.Name)
	case sqldb.OpNe:
		return 1 - 1/distinctOf(src, col.Name)
	case sqldb.OpLt, sqldb.OpLe, sqldb.OpGt, sqldb.OpGe:
		cs, _ := colStatsFor(src, col.Name)
		v, err := evalConst(lit)
		if err != nil || cs == nil {
			return defaultRangeSel
		}
		var x float64
		switch n := v.(type) {
		case int64:
			x = float64(n)
		case float64:
			x = n
		default:
			return defaultRangeSel
		}
		frac, ok := cs.fracLE(x)
		if !ok {
			return defaultRangeSel
		}
		if op == sqldb.OpLt || op == sqldb.OpLe {
			return frac
		}
		return 1 - frac
	}
	return defaultRangeSel
}

// predsSelectivity multiplies the conjuncts' selectivities.
func predsSelectivity(preds []sqldb.Expr, src source) float64 {
	sel := 1.0
	for _, p := range preds {
		sel *= predSelectivity(p, src)
	}
	if sel < minSelectivity {
		sel = minSelectivity
	}
	return sel
}
