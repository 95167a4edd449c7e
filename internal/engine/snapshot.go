package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/rel"
)

// A snapshot is a full dump of the catalog and every table's row slice
// (holes included, so row positions — which WAL update/delete frames
// reference — survive the round trip) tagged with the WAL sequence
// number it covers:
//
//	8 bytes  magic "XRDBSNP" + format version '2'
//	uvarint  covered WAL sequence number
//	uvarint  table count, then per table in creation order:
//	         uvarint-length-prefixed JSON snapTableHeader,
//	         per column named in the header's dict_cols, in order:
//	         uvarint value count + length-prefixed strings (the
//	         persisted dictionary in code order),
//	         uvarint slot count, then per slot 0x00 (hole) or
//	         0x01 + row in the WAL value codec extended with tag 'd'
//	         (uvarint dictionary code) for TEXT values found in the
//	         column's dictionary
//	uint32   IEEE CRC-32 of everything above (little endian)
//
// Dictionary compression is what makes snapshots of shredded corpora
// small: the repetitive element/attr-name and PCDATA strings collapse
// to one dictionary entry plus a varint code per occurrence.
//
// Snapshots are published atomically: written to a .tmp file, synced,
// then renamed into place. Hash-index contents are rebuilt from the
// rows on load; ordered indexes are recreated dirty and rebuild lazily.

var snapMagic = [8]byte{'X', 'R', 'D', 'B', 'S', 'N', 'P', '2'}

// snapTableHeader is the per-table JSON header of a snapshot.
type snapTableHeader struct {
	Def     *rel.Table    `json:"def"`
	Indexes []snapIndex   `json:"indexes,omitempty"`
	Ordered []snapOrdered `json:"ordered,omitempty"`
	// DictCols names the columns whose dictionaries follow the header,
	// in emission order.
	DictCols []string `json:"dict_cols,omitempty"`
	// Stats carries the table's ANALYZE statistics (stats.go). Absent
	// for unanalyzed tables and in snapshots written before statistics
	// existed — readers of either kind just plan without them.
	Stats *TableStats `json:"stats,omitempty"`
}

type snapIndex struct {
	Name   string   `json:"name"`
	Cols   []string `json:"cols"`
	Unique bool     `json:"unique,omitempty"`
	// Constraint marks the auto-created pk/unique indexes, which must
	// stay undroppable after recovery.
	Constraint bool `json:"constraint,omitempty"`
}

type snapOrdered struct {
	Name string `json:"name"`
	Col  string `json:"col"`
}

// appendSnapVal extends the WAL value codec with dictionary coding:
// TEXT values found in the column's persisted dictionary are written as
// 'd' + uvarint code; everything else (including post-ANALYZE strings
// the dictionary has never seen) uses the plain codec.
func appendSnapVal(buf []byte, v any, d *colDict) ([]byte, error) {
	if d != nil {
		if s, ok := v.(string); ok {
			if code, ok := d.lookup(s); ok {
				buf = append(buf, 'd')
				return binary.AppendUvarint(buf, uint64(code)), nil
			}
		}
	}
	return appendWALVal(buf, v)
}

func appendSnapRow(buf []byte, row []any, dicts []*colDict) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	var err error
	for i, v := range row {
		var d *colDict
		if i < len(dicts) {
			d = dicts[i]
		}
		if buf, err = appendSnapVal(buf, v, d); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// snapVal decodes one value, resolving 'd' tags against the column's
// dictionary.
func (r *walReader) snapVal(d *colDict) (any, error) {
	if r.pos < len(r.data) && r.data[r.pos] == 'd' {
		r.pos++
		code, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if d == nil || code >= uint64(len(d.vals)) {
			return nil, errWALCorrupt
		}
		return d.vals[code], nil
	}
	return r.val()
}

func (r *walReader) snapRow(dicts []*colDict) ([]any, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) { // each value costs >= 1 byte
		return nil, errWALCorrupt
	}
	row := make([]any, n)
	for i := range row {
		var d *colDict
		if i < len(dicts) {
			d = dicts[i]
		}
		if row[i], err = r.snapVal(d); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// encodeSnapshot serializes the database under the caller's locks
// (db.mu shared plus read locks on every table).
func (db *DB) encodeSnapshot(seq uint64) ([]byte, error) {
	buf := append([]byte(nil), snapMagic[:]...)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(db.order)))
	for _, name := range db.order {
		t := db.tables[name]
		hdr := snapTableHeader{Def: t.def, Stats: t.stats}
		for _, ix := range t.indexes {
			cols := make([]string, len(ix.cols))
			for i, c := range ix.cols {
				cols[i] = t.def.Columns[c].Name
			}
			hdr.Indexes = append(hdr.Indexes, snapIndex{Name: ix.name, Cols: cols, Unique: ix.unique, Constraint: ix.constraint})
		}
		for _, ox := range t.ordered {
			hdr.Ordered = append(hdr.Ordered, snapOrdered{Name: ox.name, Col: t.def.Columns[ox.col].Name})
		}
		var dicts []*colDict
		if len(t.dicts) == len(t.def.Columns) {
			dicts = t.dicts
			for c, d := range t.dicts {
				if d != nil {
					hdr.DictCols = append(hdr.DictCols, t.def.Columns[c].Name)
				}
			}
		}
		hj, err := json.Marshal(hdr)
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(hj)))
		buf = append(buf, hj...)
		for _, d := range dicts {
			if d == nil {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(len(d.vals)))
			for _, s := range d.vals {
				buf = appendWALString(buf, s)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(t.rows)))
		for _, row := range t.rows {
			if row == nil {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			if buf, err = appendSnapRow(buf, row, dicts); err != nil {
				return nil, err
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// writeSnapshotLocked dumps the database to snap-<seq>.snap via a
// temp-file rename. The caller holds db.mu (shared), read locks on
// every table, and wal.mu — so the dump is exactly the state produced
// by frames 1..seq.
func (db *DB) writeSnapshotLocked(fs faultfs.FS, dir string, seq uint64) error {
	data, err := db.encodeSnapshot(seq)
	if err != nil {
		return err
	}
	final := filepath.Join(dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	// The rename is not a durable directory entry until the directory
	// itself is fsynced; the caller deletes the now-redundant WAL
	// segments only after this barrier, so no crash can surface the
	// deletions without the snapshot.
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	if db.obs != nil {
		db.obs.WALFsyncs.Add(2) // snapshot content + directory entry
	}
	return nil
}

// loadSnapshot validates and decodes a snapshot into a fresh table set.
// Every length and name is checked before use, so corrupt input yields
// an error, never a panic; the CRC makes accidental corruption all but
// impossible to miss.
func loadSnapshot(data []byte) (tables map[string]*table, order []string, seq uint64, err error) {
	if len(data) < len(snapMagic)+4 {
		return nil, nil, 0, fmt.Errorf("engine: snapshot too short")
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, nil, 0, fmt.Errorf("engine: snapshot checksum mismatch")
	}
	// Checked after the CRC so a damaged magic reads as corruption (fall
	// back to an older snapshot) and only an intact file of another
	// version as unsupported.
	const prefix = len(snapMagic) - 1
	if string(data[:prefix]) != string(snapMagic[:prefix]) {
		return nil, nil, 0, fmt.Errorf("engine: bad snapshot magic")
	}
	if data[prefix] != snapMagic[prefix] {
		return nil, nil, 0, fmt.Errorf("%w: snapshot version %q", ErrUnsupportedFormat, data[prefix])
	}
	r := &walReader{data: body, pos: len(snapMagic)}
	if seq, err = r.uvarint(); err != nil {
		return nil, nil, 0, err
	}
	ntables, err := r.uvarint()
	if err != nil {
		return nil, nil, 0, err
	}
	if ntables > uint64(len(body)) {
		return nil, nil, 0, errWALCorrupt
	}
	tables = make(map[string]*table, ntables)
	for i := uint64(0); i < ntables; i++ {
		hlen, err := r.uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		hj, err := r.bytes(hlen)
		if err != nil {
			return nil, nil, 0, err
		}
		var hdr snapTableHeader
		if err := json.Unmarshal(hj, &hdr); err != nil {
			return nil, nil, 0, fmt.Errorf("engine: snapshot table header: %w", err)
		}
		if hdr.Def == nil || hdr.Def.Name == "" {
			return nil, nil, 0, fmt.Errorf("engine: snapshot table header missing definition")
		}
		if _, dup := tables[hdr.Def.Name]; dup {
			return nil, nil, 0, fmt.Errorf("engine: snapshot duplicates table %q", hdr.Def.Name)
		}
		t := &table{def: hdr.Def, indexes: make(map[string]*index), stats: hdr.Stats}
		for _, ixh := range hdr.Indexes {
			if _, dup := t.indexes[ixh.Name]; dup {
				return nil, nil, 0, fmt.Errorf("engine: snapshot duplicates index %q", ixh.Name)
			}
			if err := t.addIndex(ixh.Name, ixh.Cols, ixh.Unique, ixh.Constraint); err != nil {
				return nil, nil, 0, err
			}
		}
		for _, oxh := range hdr.Ordered {
			_, pos := t.def.Column(oxh.Col)
			if pos < 0 {
				return nil, nil, 0, fmt.Errorf("engine: snapshot ordered index %q on missing column %q", oxh.Name, oxh.Col)
			}
			if t.ordered == nil {
				t.ordered = make(map[string]*orderedIndex)
			}
			t.ordered[oxh.Name] = &orderedIndex{name: oxh.Name, col: pos, dirty: true}
		}
		// Dictionary sections, in dict_cols order.
		var dicts []*colDict
		if len(hdr.DictCols) > 0 {
			dicts = make([]*colDict, len(t.def.Columns))
			for _, cn := range hdr.DictCols {
				_, pos := t.def.Column(cn)
				if pos < 0 {
					return nil, nil, 0, fmt.Errorf("engine: snapshot dictionary on missing column %q", cn)
				}
				if dicts[pos] != nil {
					return nil, nil, 0, fmt.Errorf("engine: snapshot duplicates dictionary for column %q", cn)
				}
				nvals, err := r.uvarint()
				if err != nil {
					return nil, nil, 0, err
				}
				if nvals > uint64(len(body)-r.pos)+1 {
					return nil, nil, 0, errWALCorrupt
				}
				d := newColDict(int(nvals))
				for j := uint64(0); j < nvals; j++ {
					s, err := r.str()
					if err != nil {
						return nil, nil, 0, err
					}
					d.add(s)
				}
				dicts[pos] = d
			}
			t.dicts = dicts
		} else if hdr.DictCols != nil {
			// An analyzed table may legitimately have zero encoded columns;
			// keep a full-width nil slice so ANALYZE state survives.
			t.dicts = make([]*colDict, len(t.def.Columns))
		}
		nrows, err := r.uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		if nrows > uint64(len(body)-r.pos) { // each slot costs >= 1 byte
			return nil, nil, 0, errWALCorrupt
		}
		t.rows = make([][]any, 0, nrows)
		for j := uint64(0); j < nrows; j++ {
			tag, err := r.byte1()
			if err != nil {
				return nil, nil, 0, err
			}
			switch tag {
			case 0:
				t.rows = append(t.rows, nil)
			case 1:
				row, err := r.snapRow(dicts)
				if err != nil {
					return nil, nil, 0, err
				}
				if len(row) != len(t.def.Columns) {
					return nil, nil, 0, fmt.Errorf("engine: snapshot row width mismatch in %q", t.def.Name)
				}
				t.rows = append(t.rows, row)
			default:
				return nil, nil, 0, errWALCorrupt
			}
		}
		// Rebuild the hash-index contents from the rows.
		for pos, row := range t.rows {
			if row == nil {
				continue
			}
			for _, ix := range t.indexes {
				key := ix.keyOf(row)
				if ix.unique && len(ix.m[key]) > 0 {
					return nil, nil, 0, fmt.Errorf("%w: snapshot violates unique index %q", ErrConstraint, ix.name)
				}
				ix.m[key] = append(ix.m[key], pos)
			}
		}
		tables[hdr.Def.Name] = t
		order = append(order, hdr.Def.Name)
	}
	return tables, order, seq, nil
}
