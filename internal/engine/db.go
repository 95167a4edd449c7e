package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/rel"
	"xmlrdb/internal/sqldb"
)

// Common engine errors.
var (
	// ErrNoTable is returned for operations on unknown tables.
	ErrNoTable = errors.New("engine: no such table")
	// ErrNoIndex is returned for operations on unknown indexes (hash or
	// ordered).
	ErrNoIndex = errors.New("engine: no such index")
	// ErrConstraint is returned when an insert or update violates a
	// declared constraint.
	ErrConstraint = errors.New("engine: constraint violation")
)

// DB is an in-memory relational database. It is safe for concurrent
// use, with two locking tiers: db.mu guards the catalog (the table map,
// creation order, and the FK-enforcement flag) and is held exclusively
// for DDL; row operations hold it shared and take the per-table locks
// of the tables they touch, so writers to different tables proceed in
// parallel. Multi-table operations acquire their per-table locks in
// sorted name order, which makes deadlock impossible.
type DB struct {
	mu        sync.RWMutex
	tables    map[string]*table
	order     []string
	enforceFK bool // off only while WAL replay re-applies checked operations

	// obs, tracer and slowQuery are the observability hooks (see
	// observe.go); all nil/zero by default and set before concurrent use.
	obs       *obs.Metrics
	tracer    obs.Tracer
	slowQuery time.Duration

	// wal, walFS, walDir and snapshotEvery are the durability hooks (see
	// durable.go, wal.go): all nil/zero for a purely in-memory database
	// — every hook then reduces to one nil check — and set once by
	// OpenAtOpts before the DB is shared.
	wal           *walWriter
	walFS         faultfs.FS
	walDir        string
	snapshotEvery int

	// vecOff disables the vectorized batch executor (vector.go); the
	// zero value keeps it on.
	vecOff bool

	// statsClock is the statistics epoch: it advances every time any
	// table's ANALYZE statistics are (re)installed, so plan caches can
	// age out entries compiled against stale statistics. See stats.go.
	statsClock atomic.Uint64

	// clock is the snapshot epoch clock: it advances on every committed
	// mutation (in lockstep with WAL appends on durable stores, up to
	// batching) and cursors pin its value at open. pins registers those
	// pins so the vacuum and the observability surface can see the
	// oldest snapshot still being read. See version.go.
	clock atomic.Uint64
	pins  pinSet
}

// SetVectorized toggles the vectorized batch executor (on by default).
// With it off every plan runs row-at-a-time; the equivalence tests use
// the toggle to pin both paths to identical results.
func (db *DB) SetVectorized(on bool) {
	db.mu.Lock()
	db.vecOff = !on
	db.mu.Unlock()
}

type table struct {
	// mu guards rows, indexes and ordered; def is immutable after DDL.
	mu      sync.RWMutex
	def     *rel.Table
	rows    [][]any
	indexes map[string]*index
	ordered map[string]*orderedIndex
	// dicts holds the persisted per-column dictionaries built by ANALYZE
	// (nil slice until then; nil entries for unencoded columns). Mutated
	// only under the table's write lock.
	dicts []*colDict
	// stats holds the table's ANALYZE statistics (stats.go), nil until
	// the first ANALYZE; mutated only under the table's write lock and
	// treated as immutable once installed. statsMuts counts committed
	// mutations since the statistics were installed — the staleness
	// signal surfaced by StatsFreshnessReport.
	stats     *TableStats
	statsMuts atomic.Int64
	// MVCC state (version.go): cur caches the immutable snapshot cursors
	// capture at open (nil after every mutation; verMu serializes its
	// lazy re-creation between concurrent readers), liveRefs counts open
	// captures of the current rows backing array — writers consult it to
	// decide copy-on-write — and clock points at the owning DB's epoch
	// clock.
	cur      *tableVersion
	verMu    sync.Mutex
	liveRefs *atomic.Int64
	clock    *atomic.Uint64
	// obs holds the table's metrics, nil when collection is off; set
	// under db.mu exclusive, read under db.mu shared.
	obs *obs.TableMetrics
}

type index struct {
	name   string
	cols   []int
	unique bool
	// constraint marks an index that backs a declared constraint (the
	// auto-created <table>_pk and <table>_uN indexes): it is what makes
	// applyRowLocked reject duplicate keys, so it cannot be dropped.
	constraint bool
	m          map[string][]int
}

// Open returns an empty database with foreign-key enforcement enabled.
func Open() *DB {
	return &DB{tables: make(map[string]*table), enforceFK: true}
}

// CreateTable registers a table from a rel definition and builds indexes
// for its primary key and unique constraints.
func (db *DB) CreateTable(def *rel.Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.createTableLocked(def); err != nil {
		return err
	}
	if err := db.logDDL(ddlRecord{Op: "create_table", Def: def}); err != nil {
		db.undoCreateTableLocked(def.Name)
		return err
	}
	return nil
}

// undoCreateTableLocked removes a table that was registered moments ago
// but whose DDL could not be logged.
func (db *DB) undoCreateTableLocked(name string) {
	delete(db.tables, name)
	if n := len(db.order); n > 0 && db.order[n-1] == name {
		db.order = db.order[:n-1]
	}
}

func (db *DB) createTableLocked(def *rel.Table) error {
	if _, dup := db.tables[def.Name]; dup {
		return fmt.Errorf("engine: table %q already exists", def.Name)
	}
	t := &table{def: def, indexes: make(map[string]*index), liveRefs: &atomic.Int64{}, clock: &db.clock}
	if db.obs != nil {
		t.obs = db.obs.Table(def.Name)
	}
	if len(def.PrimaryKey) > 0 {
		if err := t.addIndex(def.Name+"_pk", def.PrimaryKey, true, true); err != nil {
			return err
		}
	}
	for i, u := range def.Uniques {
		if err := t.addIndex(fmt.Sprintf("%s_u%d", def.Name, i), u, true, true); err != nil {
			return err
		}
	}
	db.tables[def.Name] = t
	db.order = append(db.order, def.Name)
	return nil
}

// CreateSchema registers every table of a schema.
func (db *DB) CreateSchema(s *rel.Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range s.Tables {
		if err := db.createTableLocked(t); err != nil {
			return err
		}
		if err := db.logDDL(ddlRecord{Op: "create_table", Def: t}); err != nil {
			db.undoCreateTableLocked(t.Name)
			return err
		}
	}
	return nil
}

// CreateIndex builds a secondary index.
func (db *DB) CreateIndex(name, tableName string, cols []string, unique bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[tableName]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	if _, dup := t.indexes[name]; dup {
		return fmt.Errorf("engine: index %q already exists", name)
	}
	if err := t.addIndex(name, cols, unique, false); err != nil {
		return err
	}
	// Populate from existing rows.
	ix := t.indexes[name]
	for pos, row := range t.rows {
		if row == nil {
			continue
		}
		key := ix.keyOf(row)
		if unique && len(ix.m[key]) > 0 {
			delete(t.indexes, name)
			return fmt.Errorf("%w: duplicate key for unique index %q", ErrConstraint, name)
		}
		ix.m[key] = append(ix.m[key], pos)
	}
	if err := db.logDDL(ddlRecord{Op: "create_index", Name: name, Table: tableName, Cols: cols, Unique: unique}); err != nil {
		delete(t.indexes, name)
		return err
	}
	return nil
}

// DropIndex removes a secondary index. Indexes that back a declared
// constraint — the auto-created <table>_pk and <table>_uN indexes — are
// not droppable: they are what enforces uniqueness on insert, and
// removing one would let duplicate keys slip in silently.
func (db *DB) DropIndex(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range db.tables {
		ix, ok := t.indexes[name]
		if !ok {
			continue
		}
		if ix.constraint {
			return fmt.Errorf("engine: cannot drop index %q: it enforces a constraint of table %q (drop the table instead)",
				name, t.def.Name)
		}
		if err := db.logDDL(ddlRecord{Op: "drop_index", Name: name}); err != nil {
			return err
		}
		delete(t.indexes, name)
		return nil
	}
	return fmt.Errorf("%w: %q", ErrNoIndex, name)
}

// DependencyError reports a DropTable refused because other tables
// still reference the target through foreign keys: dropping it would
// leave dangling references while enforcement is on.
type DependencyError struct {
	// Table is the table whose drop was refused.
	Table string
	// ReferencedBy lists the tables with foreign keys into Table, in
	// creation order.
	ReferencedBy []string
}

func (e *DependencyError) Error() string {
	return fmt.Sprintf("engine: cannot drop table %q: referenced by foreign keys from %s",
		e.Table, strings.Join(e.ReferencedBy, ", "))
}

// DropTable removes a table. While foreign-key enforcement is on, a
// table that other tables reference cannot be dropped — that would
// silently turn their FK columns into dangling references — and the
// call fails with a *DependencyError naming the referencing tables.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	if db.enforceFK {
		var refs []string
		for _, other := range db.order {
			if other == name {
				continue // a self-reference dies with the table
			}
			for _, fk := range db.tables[other].def.ForeignKeys {
				if fk.RefTable == name {
					refs = append(refs, other)
					break
				}
			}
		}
		if len(refs) > 0 {
			return &DependencyError{Table: name, ReferencedBy: refs}
		}
	}
	if err := db.logDDL(ddlRecord{Op: "drop_table", Name: name}); err != nil {
		return err
	}
	delete(db.tables, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
	return nil
}

func (t *table) addIndex(name string, colNames []string, unique, constraint bool) error {
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		_, pos := t.def.Column(cn)
		if pos < 0 {
			return fmt.Errorf("engine: table %q has no column %q", t.def.Name, cn)
		}
		cols[i] = pos
	}
	t.indexes[name] = &index{name: name, cols: cols, unique: unique, constraint: constraint, m: make(map[string][]int)}
	return nil
}

func (ix *index) keyOf(row []any) string {
	return encodeKeyCols(row, ix.cols)
}

// findIndex returns an index whose columns are exactly cols (order
// matters), or nil.
func (t *table) findIndex(cols []int) *index {
	for _, ix := range t.indexes {
		if len(ix.cols) != len(cols) {
			continue
		}
		match := true
		for i := range cols {
			if ix.cols[i] != cols[i] {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// lockRows acquires per-table row locks — write locks for the tables
// named in writes, read locks for those in reads — in sorted name
// order, so concurrent operations over overlapping table sets never
// deadlock. A table appearing in both sets is write-locked once;
// unknown names are skipped (the caller reports them). The caller must
// hold db.mu (shared or exclusive) and call the returned function to
// release.
func (db *DB) lockRows(writes, reads []string) func() {
	type tlock struct {
		name  string
		t     *table
		write bool
	}
	set := make(map[string]*tlock, len(writes)+len(reads))
	for _, n := range writes {
		if t := db.tables[n]; t != nil {
			set[n] = &tlock{name: n, t: t, write: true}
		}
	}
	for _, n := range reads {
		if set[n] != nil {
			continue
		}
		if t := db.tables[n]; t != nil {
			set[n] = &tlock{name: n, t: t}
		}
	}
	locks := make([]*tlock, 0, len(set))
	for _, l := range set {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i].name < locks[j].name })
	for _, l := range locks {
		var t0 time.Time
		if l.t.obs != nil {
			t0 = time.Now()
		}
		if l.write {
			l.t.mu.Lock()
		} else {
			l.t.mu.RLock()
		}
		if l.t.obs != nil {
			l.t.obs.LockWaits.Inc()
			l.t.obs.LockWaitNanos.Add(int64(time.Since(t0)))
		}
	}
	return func() {
		for i := len(locks) - 1; i >= 0; i-- {
			if locks[i].write {
				locks[i].t.mu.Unlock()
			} else {
				locks[i].t.mu.RUnlock()
			}
		}
	}
}

// fkReads returns the tables an insert into t must read-lock for
// foreign-key checks (none when enforcement is off).
func (db *DB) fkReads(t *table) []string {
	if !db.enforceFK || len(t.def.ForeignKeys) == 0 {
		return nil
	}
	reads := make([]string, 0, len(t.def.ForeignKeys))
	for _, fk := range t.def.ForeignKeys {
		reads = append(reads, fk.RefTable)
	}
	return reads
}

// Insert appends one row given in column order, enforcing constraints.
// It returns the row position.
func (db *DB) Insert(tableName string, row []any) (int, error) {
	pos, err := db.insertOne(tableName, row)
	if err == nil {
		db.maybeCheckpoint()
	}
	return pos, err
}

func (db *DB) insertOne(tableName string, row []any) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[tableName]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	unlock := db.lockRows([]string{tableName}, db.fkReads(t))
	defer unlock()
	return db.insertLocked(context.Background(), tableName, row)
}

// InsertMap appends one row given as a column->value map; omitted
// columns are NULL.
func (db *DB) InsertMap(tableName string, vals map[string]any) (int, error) {
	pos, err := db.insertMap(tableName, vals)
	if err == nil {
		db.maybeCheckpoint()
	}
	return pos, err
}

func (db *DB) insertMap(tableName string, vals map[string]any) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[tableName]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	row := make([]any, len(t.def.Columns))
	for k, v := range vals {
		_, pos := t.def.Column(k)
		if pos < 0 {
			return 0, fmt.Errorf("engine: table %q has no column %q", tableName, k)
		}
		row[pos] = v
	}
	unlock := db.lockRows([]string{tableName}, db.fkReads(t))
	defer unlock()
	return db.insertLocked(context.Background(), tableName, row)
}

// InsertBatch appends many rows (in column order) under a single lock
// acquisition. The batch is atomic: on any error no row is kept and all
// index state is restored. Rows are applied in order, so a row may
// satisfy the foreign keys of later rows in the same batch; within one
// table, parents must precede their children. It returns the number of
// rows inserted (len(rows) on success).
func (db *DB) InsertBatch(tableName string, rows [][]any) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	n, err := db.insertBatch(tableName, rows)
	if err == nil {
		db.maybeCheckpoint()
	}
	return n, err
}

func (db *DB) insertBatch(tableName string, rows [][]any) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[tableName]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	// Coerce and validate every row before taking row locks: a doomed
	// batch does no work under contention.
	staged := make([][]any, len(rows))
	for i, row := range rows {
		s, err := coerceRow(t, tableName, row)
		if err != nil {
			return 0, fmt.Errorf("engine: batch row %d: %w", i, err)
		}
		staged[i] = s
	}
	unlock := db.lockRows([]string{tableName}, db.fkReads(t))
	defer unlock()
	start := len(t.rows)
	for i, s := range staged {
		if _, err := db.applyRowLocked(t, tableName, s); err != nil {
			db.rollbackToLocked(t, start)
			return 0, fmt.Errorf("engine: batch row %d: %w", i, err)
		}
	}
	if werr := db.logBatch(tableName, staged); werr != nil {
		// An aborted batch must never reach the log, and logged state must
		// never trail the applied state: unwind the whole batch.
		db.rollbackToLocked(t, start)
		return 0, werr
	}
	if t.obs != nil {
		t.obs.Batches.Inc()
		t.obs.BatchRows.Observe(int64(len(staged)))
		t.obs.RowsInserted.Add(int64(len(staged)))
	}
	return len(staged), nil
}

// InsertBatchMulti appends batches to several tables under one lock
// acquisition and, when the database is durable, one WAL frame — the
// unit the corpus loader uses to make each document atomic: after a
// crash, a document's rows are either present in every table or in
// none. Batches are applied in slice order (parent tables before
// children), the same table may appear more than once, and the whole
// operation is atomic. It returns the total number of rows inserted.
func (db *DB) InsertBatchMulti(tables []string, batches [][][]any) (int, error) {
	if len(tables) != len(batches) {
		return 0, fmt.Errorf("engine: InsertBatchMulti got %d tables but %d batches", len(tables), len(batches))
	}
	if len(tables) == 0 {
		return 0, nil
	}
	n, err := db.insertBatchMulti(tables, batches)
	if err == nil {
		db.maybeCheckpoint()
	}
	return n, err
}

func (db *DB) insertBatchMulti(tables []string, batches [][][]any) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var reads []string
	staged := make([][][]any, len(tables))
	tabs := make([]*table, len(tables))
	for i, name := range tables {
		t := db.tables[name]
		if t == nil {
			return 0, fmt.Errorf("%w: %q", ErrNoTable, name)
		}
		tabs[i] = t
		reads = append(reads, db.fkReads(t)...)
		staged[i] = make([][]any, len(batches[i]))
		for j, row := range batches[i] {
			s, err := coerceRow(t, name, row)
			if err != nil {
				return 0, fmt.Errorf("engine: batch %s row %d: %w", name, j, err)
			}
			staged[i][j] = s
		}
	}
	unlock := db.lockRows(tables, reads)
	defer unlock()
	starts := make(map[string]int, len(tables))
	for i, name := range tables {
		if _, ok := starts[name]; !ok {
			starts[name] = len(tabs[i].rows)
		}
	}
	total := 0
	for i, name := range tables {
		for j, s := range staged[i] {
			if _, err := db.applyRowLocked(tabs[i], name, s); err != nil {
				db.rollbackMulti(starts)
				return 0, fmt.Errorf("engine: batch %s row %d: %w", name, j, err)
			}
			total++
		}
	}
	if werr := db.logMulti(tables, staged); werr != nil {
		db.rollbackMulti(starts)
		return 0, werr
	}
	for i, t := range tabs {
		if t.obs != nil && len(staged[i]) > 0 {
			t.obs.Batches.Inc()
			t.obs.BatchRows.Observe(int64(len(staged[i])))
			t.obs.RowsInserted.Add(int64(len(staged[i])))
		}
	}
	return total, nil
}

// rollbackToLocked removes the rows appended at or after start together
// with their index entries; the table's write lock must be held.
func (db *DB) rollbackToLocked(t *table, start int) {
	for pos := len(t.rows) - 1; pos >= start; pos-- {
		row := t.rows[pos]
		for _, ix := range t.indexes {
			key := ix.keyOf(row)
			ix.m[key] = removeInt(ix.m[key], pos)
			if len(ix.m[key]) == 0 {
				delete(ix.m, key)
			}
		}
	}
	t.rows = t.rows[:start]
	t.markOrderedDirty()
}

// coerceRow converts one row to the table's column types and checks
// width and NOT NULL; it touches only the immutable table definition,
// so no locks are required.
func coerceRow(t *table, tableName string, row []any) ([]any, error) {
	if len(row) != len(t.def.Columns) {
		return nil, fmt.Errorf("engine: table %q expects %d values, got %d",
			tableName, len(t.def.Columns), len(row))
	}
	stored := make([]any, len(row))
	for i, v := range row {
		cv, err := coerce(v, t.def.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", t.def.Columns[i].Name, err)
		}
		if cv == nil && t.def.Columns[i].NotNull {
			return nil, fmt.Errorf("%w: column %s.%s is NOT NULL",
				ErrConstraint, tableName, t.def.Columns[i].Name)
		}
		stored[i] = cv
	}
	return stored, nil
}

// applyRowLocked runs the unique and foreign-key checks and appends an
// already-coerced row with its index entries. The table's write lock
// and read locks on its FK-referenced tables must be held. Each index
// key is encoded once and reused for both the unique check and the
// index append.
func (db *DB) applyRowLocked(t *table, tableName string, stored []any) (int, error) {
	type ixEntry struct {
		ix  *index
		key string
	}
	keys := make([]ixEntry, 0, len(t.indexes))
	for _, ix := range t.indexes {
		key := ix.keyOf(stored)
		if ix.unique && len(ix.m[key]) > 0 {
			return 0, fmt.Errorf("%w: duplicate key in %s (index %s)",
				ErrConstraint, tableName, ix.name)
		}
		keys = append(keys, ixEntry{ix, key})
	}
	if db.enforceFK {
		for _, fk := range t.def.ForeignKeys {
			if err := db.checkFKLocked(t, stored, fk); err != nil {
				return 0, err
			}
		}
	}
	pos := len(t.rows)
	oldCap := cap(t.rows)
	t.rows = append(t.rows, stored)
	t.noteAppend(oldCap)
	for _, e := range keys {
		e.ix.m[e.key] = append(e.ix.m[e.key], pos)
	}
	t.markOrderedDirty()
	return pos, nil
}

func (db *DB) insertLocked(ctx context.Context, tableName string, row []any) (int, error) {
	t := db.tables[tableName]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	stored, err := coerceRow(t, tableName, row)
	if err != nil {
		return 0, err
	}
	pos, err := db.applyRowLocked(t, tableName, stored)
	if err != nil {
		return pos, err
	}
	if werr := db.logInsert(ctx, tableName, stored); werr != nil {
		// The log rejected the row: unwind the in-memory apply so the
		// applied state never runs ahead of the durable state.
		db.rollbackToLocked(t, pos)
		return 0, werr
	}
	if t.obs != nil {
		t.obs.Inserts.Inc()
		t.obs.RowsInserted.Inc()
	}
	return pos, nil
}

func (db *DB) checkFKLocked(t *table, row []any, fk rel.ForeignKey) error {
	vals := make([]any, len(fk.Columns))
	anyNull := false
	for i, cn := range fk.Columns {
		_, pos := t.def.Column(cn)
		vals[i] = row[pos]
		if row[pos] == nil {
			anyNull = true
		}
	}
	if anyNull {
		return nil // NULL FK values are permitted
	}
	ref := db.tables[fk.RefTable]
	if ref == nil {
		return fmt.Errorf("%w: %q (referenced by %s)", ErrNoTable, fk.RefTable, t.def.Name)
	}
	cols := make([]int, len(fk.RefColumns))
	for i, cn := range fk.RefColumns {
		_, pos := ref.def.Column(cn)
		if pos < 0 {
			return fmt.Errorf("engine: referenced column %s.%s missing", fk.RefTable, cn)
		}
		cols[i] = pos
	}
	if ix := ref.findIndex(cols); ix != nil {
		if len(ix.m[encodeKey(vals)]) > 0 {
			return nil
		}
	} else {
		for _, rrow := range ref.rows {
			if rrow == nil {
				continue
			}
			all := true
			for i, c := range cols {
				if !equalVals(rrow[c], vals[i]) {
					all = false
					break
				}
			}
			if all {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: foreign key %s(%v) -> %s has no matching row",
		ErrConstraint, t.def.Name, vals, fk.RefTable)
}

// CheckAllFKs verifies every foreign key of every table (rows inserted
// with enforcement off, as WAL replay does, are checked only here).
func (db *DB) CheckAllFKs() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	unlock := db.lockRows(nil, db.order)
	defer unlock()
	for _, name := range db.order {
		t := db.tables[name]
		for _, fk := range t.def.ForeignKeys {
			for _, row := range t.rows {
				if row == nil {
					continue
				}
				if err := db.checkFKLocked(t, row, fk); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// TableNames returns the table names in creation order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.order...)
}

// TableDef returns the schema of a table, or nil.
func (db *DB) TableDef(name string) *rel.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t := db.tables[name]; t != nil {
		return t.def
	}
	return nil
}

// RowCount returns the number of live rows in a table.
func (db *DB) RowCount(name string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[name]
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.rows {
		if r != nil {
			n++
		}
	}
	return n
}

// TotalRows returns the number of live rows across all tables.
func (db *DB) TotalRows() int {
	total := 0
	for _, name := range db.TableNames() {
		total += db.RowCount(name)
	}
	return total
}

// ApproxBytes estimates the storage footprint of all live rows.
func (db *DB) ApproxBytes() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	unlock := db.lockRows(nil, db.order)
	defer unlock()
	total := 0
	for _, t := range db.tables {
		for _, row := range t.rows {
			if row == nil {
				continue
			}
			for _, v := range row {
				switch x := v.(type) {
				case string:
					total += 16 + len(x)
				case nil:
					total += 8
				default:
					total += 16
				}
			}
		}
	}
	return total
}

// Result reports the effect of a non-query statement.
type Result struct {
	// RowsAffected counts inserted, updated or deleted rows.
	RowsAffected int
}

// Rows is a fully materialized query result (see DrainCursor).
type Rows struct {
	// Cols are the output column names.
	Cols []string
	// Data holds the rows.
	Data [][]any
}

// dispatchStmt routes a parsed non-query statement to its executor.
// SELECTs never come here: they open through queryCursor. Mutations
// and DDL are checked against the context once up front and then run
// to completion, so a statement is either never started or fully
// applied under the engine's usual atomicity rules.
func (db *DB) dispatchStmt(ctx context.Context, st sqldb.Stmt) (Result, error) {
	if err := newCancelCheck(ctx).now(); err != nil {
		return Result{}, err
	}
	switch s := st.(type) {
	case *sqldb.Insert:
		n, err := db.execInsert(ctx, s)
		return Result{RowsAffected: n}, err
	case *sqldb.CreateTable:
		return Result{}, db.CreateTable(s.Def)
	case *sqldb.CreateIndex:
		if s.Ordered {
			if len(s.Columns) != 1 {
				return Result{}, fmt.Errorf("engine: ordered indexes take exactly one column")
			}
			return Result{}, db.CreateOrderedIndex(s.Name, s.Table, s.Columns[0])
		}
		return Result{}, db.CreateIndex(s.Name, s.Table, s.Columns, s.Unique)
	case *sqldb.DropTable:
		err := db.DropTable(s.Table)
		if err != nil && s.IfExists && errors.Is(err, ErrNoTable) {
			err = nil
		}
		return Result{}, err
	case *sqldb.DropIndex:
		// Only a not-found falls through to the ordered-index namespace
		// (mirroring the DropTable/ErrNoTable path): a WAL failure or a
		// constraint-backed refusal must surface, and IF EXISTS forgives
		// a missing index, not a failed drop.
		err := db.DropIndex(s.Name)
		if errors.Is(err, ErrNoIndex) {
			err = db.DropOrderedIndex(s.Name)
		}
		if err != nil && s.IfExists && errors.Is(err, ErrNoIndex) {
			err = nil
		}
		return Result{}, err
	case *sqldb.Update:
		n, err := db.execUpdate(ctx, s)
		return Result{RowsAffected: n}, err
	case *sqldb.Delete:
		n, err := db.execDelete(ctx, s)
		return Result{RowsAffected: n}, err
	default:
		return Result{}, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

func (db *DB) execInsert(ctx context.Context, ins *sqldb.Insert) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[ins.Table]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, ins.Table)
	}
	unlock := db.lockRows([]string{ins.Table}, db.fkReads(t))
	defer unlock()
	colPos := make([]int, 0, len(ins.Columns))
	if len(ins.Columns) == 0 {
		for i := range t.def.Columns {
			colPos = append(colPos, i)
		}
	} else {
		for _, cn := range ins.Columns {
			_, pos := t.def.Column(cn)
			if pos < 0 {
				return 0, fmt.Errorf("engine: table %q has no column %q", ins.Table, cn)
			}
			colPos = append(colPos, pos)
		}
	}
	inserted := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(colPos) {
			return inserted, fmt.Errorf("engine: INSERT expects %d values, got %d", len(colPos), len(exprRow))
		}
		row := make([]any, len(t.def.Columns))
		for i, e := range exprRow {
			v, err := evalConst(e)
			if err != nil {
				return inserted, err
			}
			row[colPos[i]] = v
		}
		if _, err := db.insertLocked(ctx, ins.Table, row); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

func (db *DB) execUpdate(ctx context.Context, up *sqldb.Update) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[up.Table]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, up.Table)
	}
	unlock := db.lockRows([]string{up.Table}, nil)
	defer unlock()
	env := newSingleTableEnv(t, up.Table)
	changed := 0
	// UPDATE is not atomic: an evaluation error keeps the rows changed so
	// far, and exactly those (position + post-image) go to the WAL on the
	// way out. A failed WAL append, though, unwinds them all — the live
	// state must never run ahead of the durable state.
	var walPos []int
	var walRows [][]any
	var oldRows [][]any
	finish := func(err error) (int, error) {
		if werr := db.logUpdate(ctx, up.Table, walPos, walRows); werr != nil {
			for i := len(walPos) - 1; i >= 0; i-- {
				pos, old, applied := walPos[i], oldRows[i], walRows[i]
				for _, ix := range t.indexes {
					oldKey, newKey := ix.keyOf(old), ix.keyOf(applied)
					if oldKey == newKey {
						continue
					}
					ix.m[newKey] = removeInt(ix.m[newKey], pos)
					ix.m[oldKey] = append(ix.m[oldKey], pos)
				}
				t.rows[pos] = old
			}
			if len(walPos) > 0 {
				t.markOrderedDirty()
			}
			changed = 0
			if err == nil {
				err = werr
			}
		}
		return changed, err
	}
	for pos, row := range t.rows {
		if row == nil {
			continue
		}
		env.row = row
		if up.Where != nil {
			v, err := evalExpr(up.Where, env)
			if err != nil {
				return finish(err)
			}
			if !truthy(v) {
				continue
			}
		}
		newRow := append([]any(nil), row...)
		for _, as := range up.Set {
			_, cp := t.def.Column(as.Column)
			if cp < 0 {
				return finish(fmt.Errorf("engine: table %q has no column %q", up.Table, as.Column))
			}
			v, err := evalExpr(as.Value, env)
			if err != nil {
				return finish(err)
			}
			cv, err := coerce(v, t.def.Columns[cp].Type)
			if err != nil {
				return finish(err)
			}
			if cv == nil && t.def.Columns[cp].NotNull {
				return finish(fmt.Errorf("%w: column %s.%s is NOT NULL", ErrConstraint, up.Table, as.Column))
			}
			newRow[cp] = cv
		}
		// Reindex: check uniques first, then swap keys, encoding each
		// key exactly once.
		type rekey struct {
			ix             *index
			oldKey, newKey string
		}
		var rekeys []rekey
		for _, ix := range t.indexes {
			oldKey := ix.keyOf(row)
			newKey := ix.keyOf(newRow)
			if oldKey == newKey {
				continue
			}
			if ix.unique && len(ix.m[newKey]) > 0 {
				return finish(fmt.Errorf("%w: duplicate key in %s (index %s)", ErrConstraint, up.Table, ix.name))
			}
			rekeys = append(rekeys, rekey{ix, oldKey, newKey})
		}
		for _, rk := range rekeys {
			rk.ix.m[rk.oldKey] = removeInt(rk.ix.m[rk.oldKey], pos)
			rk.ix.m[rk.newKey] = append(rk.ix.m[rk.newKey], pos)
		}
		t.prepareWrite()
		t.rows[pos] = newRow
		t.markOrderedDirty()
		changed++
		walPos = append(walPos, pos)
		walRows = append(walRows, newRow)
		oldRows = append(oldRows, row)
	}
	return finish(nil)
}

func (db *DB) execDelete(ctx context.Context, del *sqldb.Delete) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[del.Table]
	if t == nil {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, del.Table)
	}
	unlock := db.lockRows([]string{del.Table}, nil)
	defer unlock()
	env := newSingleTableEnv(t, del.Table)
	deleted := 0
	// Like UPDATE, DELETE is not atomic: the positions removed so far go
	// to the WAL on every exit path — but a failed WAL append restores
	// them, so the live state never runs ahead of the durable state.
	var walPos []int
	var oldRows [][]any
	finish := func(err error) (int, error) {
		if werr := db.logDelete(ctx, del.Table, walPos); werr != nil {
			for i := len(walPos) - 1; i >= 0; i-- {
				pos, old := walPos[i], oldRows[i]
				t.rows[pos] = old
				for _, ix := range t.indexes {
					key := ix.keyOf(old)
					ix.m[key] = append(ix.m[key], pos)
				}
			}
			if len(walPos) > 0 {
				t.markOrderedDirty()
			}
			deleted = 0
			if err == nil {
				err = werr
			}
		}
		return deleted, err
	}
	for pos, row := range t.rows {
		if row == nil {
			continue
		}
		env.row = row
		if del.Where != nil {
			v, err := evalExpr(del.Where, env)
			if err != nil {
				return finish(err)
			}
			if !truthy(v) {
				continue
			}
		}
		for _, ix := range t.indexes {
			key := ix.keyOf(row)
			ix.m[key] = removeInt(ix.m[key], pos)
		}
		t.prepareWrite()
		t.rows[pos] = nil
		t.markOrderedDirty()
		deleted++
		walPos = append(walPos, pos)
		oldRows = append(oldRows, row)
	}
	return finish(nil)
}

func removeInt(xs []int, x int) []int {
	for i, v := range xs {
		if v == x {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// ScanTable visits every live row of a table (as a copy); returning
// false stops the scan.
func (db *DB) ScanTable(name string, fn func(row []any) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		if !fn(append([]any(nil), row...)) {
			return nil
		}
	}
	return nil
}

// Lookup returns copies of the rows whose named columns equal the given
// values, using a matching index when one exists.
func (db *DB) Lookup(tableName string, colNames []string, vals []any) ([][]any, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[tableName]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		_, pos := t.def.Column(cn)
		if pos < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", tableName, cn)
		}
		cols[i] = pos
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out [][]any
	if ix := t.findIndex(cols); ix != nil {
		hits := ix.m[encodeKey(vals)]
		if t.obs != nil {
			t.obs.IndexHits.Inc()
			t.obs.RowsScanned.Add(int64(len(hits)))
		}
		for _, pos := range hits {
			if row := t.rows[pos]; row != nil {
				out = append(out, append([]any(nil), row...))
			}
		}
		return out, nil
	}
	if t.obs != nil {
		t.obs.Scans.Inc()
		t.obs.RowsScanned.Add(int64(len(t.rows)))
	}
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		match := true
		for i, c := range cols {
			if !equalVals(row[c], vals[i]) {
				match = false
				break
			}
		}
		if match {
			out = append(out, append([]any(nil), row...))
		}
	}
	return out, nil
}
