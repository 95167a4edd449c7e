package engine

import (
	"encoding/binary"
	"fmt"

	"xmlrdb/internal/rel"
)

// Dictionary encoding for shredded string columns. XML shredding
// produces TEXT columns dominated by a small set of repeated values
// (element names, attribute names, enumerated PCDATA), so a per-column
// dictionary turns them into small integer codes: snapshots store the
// code instead of the string, and the vectorized executor (vector.go)
// compares and groups by code instead of by string.
//
// Dictionaries are built explicitly by Analyze/AnalyzeTable over the
// rows present at that moment and are part of the durable engine state:
// an ANALYZE is logged as a WAL frame and the dictionary travels inside
// snapshots, so recovery reproduces it exactly (codes are assigned in
// first-seen row order, which is deterministic).
//
// Strings inserted after ANALYZE are handled by an in-memory overlay:
// the lazily rebuilt vecCache extends a copy of the persisted
// dictionary with any unseen values, so code comparisons stay exact
// without mutating durable state. Snapshots encode only values found in
// the persisted dictionary and fall back to plain strings for the rest.

// dictMaxSize caps a column dictionary; columns with more distinct
// values than this are left unencoded (the dictionary would not pay for
// itself).
const dictMaxSize = 1 << 16

// dictNull is the sentinel code for NULL (and deleted slots) in the
// codes sidecar.
const dictNull = ^uint32(0)

// colDict maps the distinct strings of one TEXT column to dense codes
// in first-seen order. Immutable once published on a table; the overlay
// path clones before extending.
type colDict struct {
	vals []string
	code map[string]uint32
}

func newColDict(capHint int) *colDict {
	return &colDict{code: make(map[string]uint32, capHint)}
}

// add interns s, returning its code.
func (d *colDict) add(s string) uint32 {
	if c, ok := d.code[s]; ok {
		return c
	}
	c := uint32(len(d.vals))
	d.vals = append(d.vals, s)
	d.code[s] = c
	return c
}

// lookup returns the code for s.
func (d *colDict) lookup(s string) (uint32, bool) {
	c, ok := d.code[s]
	return c, ok
}

func (d *colDict) size() int { return len(d.vals) }

// clone returns an independent copy (for the overlay extension).
func (d *colDict) clone() *colDict {
	c := &colDict{
		vals: append([]string(nil), d.vals...),
		code: make(map[string]uint32, len(d.code)),
	}
	for s, v := range d.code {
		c.code[s] = v
	}
	return c
}

// vecCache is the derived columnar sidecar the vectorized executor
// reads: for every dictionary-encoded column, the effective dictionary
// (persisted + overlay) and a per-position code vector aligned to the
// captured rows (dictNull for NULL values, holes, and values of deleted
// rows). Since MVCC it is owned by a tableVersion (version.go) rather
// than the table: the version's rows are immutable, so the sidecar is
// built lazily without locks and retires with the version — writes
// invalidate the cached version via markOrderedDirty and the next
// cursor's capture rebuilds against the new rows.
type vecCache struct {
	dicts []*colDict // per column; nil = column not encoded
	codes [][]uint32 // per column; nil = column not encoded
}

// buildVecCache derives the sidecar from one immutable row capture and
// its dictionaries; ncols is the table's column count (a dicts slice of
// any other length means the table was never analyzed).
func buildVecCache(rows [][]any, tdicts []*colDict, ncols int) *vecCache {
	vc := &vecCache{}
	if len(tdicts) != ncols {
		return vc // never analyzed
	}
	vc.dicts = make([]*colDict, len(tdicts))
	vc.codes = make([][]uint32, len(tdicts))
	for c, d := range tdicts {
		if d == nil {
			continue
		}
		eff := d
		codes := make([]uint32, len(rows))
		bad := false
		for pos, row := range rows {
			if row == nil || row[c] == nil {
				codes[pos] = dictNull
				continue
			}
			s, ok := row[c].(string)
			if !ok {
				// A non-string in a TEXT column cannot happen after coerce,
				// but the code vector's invariant (dictNull ⇔ SQL NULL) must
				// hold exactly, so disable encoding for the column entirely.
				bad = true
				break
			}
			code, ok := eff.lookup(s)
			if !ok {
				// Value inserted after ANALYZE: extend a private overlay copy.
				if eff == d {
					eff = d.clone()
				}
				code = eff.add(s)
			}
			codes[pos] = code
		}
		if bad {
			continue
		}
		vc.dicts[c] = eff
		vc.codes[c] = codes
	}
	return vc
}

// buildDictsLocked constructs fresh dictionaries from the table's live
// rows: one per TEXT column, in first-seen row order, skipping columns
// whose cardinality exceeds dictMaxSize. The result is aligned to the
// column list (nil for unencoded columns).
func buildDictsLocked(t *table) []*colDict {
	dicts := make([]*colDict, len(t.def.Columns))
	for c, col := range t.def.Columns {
		if col.Type != rel.TypeText {
			continue
		}
		d := newColDict(64)
		over := false
		for _, row := range t.rows {
			if row == nil || row[c] == nil {
				continue
			}
			s, ok := row[c].(string)
			if !ok {
				continue
			}
			d.add(s)
			if d.size() > dictMaxSize {
				over = true
				break
			}
		}
		if !over {
			dicts[c] = d
		}
	}
	return dicts
}

// AnalyzeTable builds per-column dictionaries for the TEXT columns of
// one table from its current rows, and collects the table statistics
// (row count, per-column distinct/null counts, min/max, equi-depth
// histograms — stats.go) the cost-based planner runs on. On a durable
// database both are logged to the WAL as one frameStats record before
// they are installed, so they survive crashes exactly like row data.
// Re-running ANALYZE replaces the previous dictionaries and statistics.
func (db *DB) AnalyzeTable(name string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	unlock := db.lockRows([]string{name}, nil)
	defer unlock()
	return db.analyzeLocked(name, t)
}

// Analyze runs AnalyzeTable over every table in creation order.
func (db *DB) Analyze() error {
	for _, name := range db.TableNames() {
		if err := db.AnalyzeTable(name); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) analyzeLocked(name string, t *table) error {
	dicts := buildDictsLocked(t)
	ts := buildStatsLocked(t)
	if err := db.logStats(name, dicts, ts); err != nil {
		return err
	}
	t.dicts = dicts
	t.invalidateVersion()
	db.installStatsLocked(t, ts)
	return nil
}

// DictStats reports the dictionary state of one table for tooling and
// tests: column name -> distinct-value count, only for encoded columns.
// Nil when the table was never analyzed (or does not exist).
func (db *DB) DictStats(name string) map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[name]
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.dicts) == 0 {
		return nil
	}
	out := make(map[string]int)
	for c, d := range t.dicts {
		if d != nil {
			out[t.def.Columns[c].Name] = d.size()
		}
	}
	return out
}

// ---- WAL codec (the dictionary section of a frameStats record) ----

// encodeDictSection serializes an ANALYZE's dictionaries: table name,
// column count, then per column a presence byte and (when present) the
// dictionary values in code order.
func encodeDictSection(table string, dicts []*colDict) []byte {
	buf := appendWALString(nil, table)
	buf = binary.AppendUvarint(buf, uint64(len(dicts)))
	for _, d := range dicts {
		if d == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(d.vals)))
		for _, s := range d.vals {
			buf = appendWALString(buf, s)
		}
	}
	return buf
}

// decodeDictSection is the inverse, validated defensively like every
// other WAL payload.
func decodeDictSection(r *walReader) (string, []*colDict, error) {
	name, err := r.str()
	if err != nil {
		return "", nil, err
	}
	ncols, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	if ncols > uint64(len(r.data)-r.pos)+1 {
		return "", nil, errWALCorrupt
	}
	dicts := make([]*colDict, ncols)
	for i := range dicts {
		tag, err := r.byte1()
		if err != nil {
			return "", nil, err
		}
		switch tag {
		case 0:
		case 1:
			nvals, err := r.uvarint()
			if err != nil {
				return "", nil, err
			}
			if nvals > uint64(len(r.data)-r.pos)+1 {
				return "", nil, errWALCorrupt
			}
			d := newColDict(int(nvals))
			for j := uint64(0); j < nvals; j++ {
				s, err := r.str()
				if err != nil {
					return "", nil, err
				}
				d.add(s)
			}
			dicts[i] = d
		default:
			return "", nil, errWALCorrupt
		}
	}
	return name, dicts, nil
}
