package engine

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/rel"
)

// The write-ahead log is a sequence of length-prefixed, CRC-checksummed
// frames, one per committed mutation:
//
//	uint32  body length N (little endian)
//	N bytes body: uint64 seq, uint8 kind, payload
//	uint32  IEEE CRC-32 of the body
//
// Frames carry monotonically increasing sequence numbers. The log is
// split into segment files named wal-<firstSeq>.log; a snapshot at
// sequence S rotates the writer to a fresh segment starting at S+1 and
// deletes the older ones. Recovery replays frames in sequence order and
// stops at the first torn, truncated or corrupt frame — the surviving
// state is always a committed prefix of the original run.

// Frame kinds. Kind 7 was the dictionary-only ANALYZE record that
// frameStats replaced; like any kind this build does not write, a log
// holding one fails to open with ErrUnsupportedFormat.
const (
	frameInsert  byte = 1 // table, row
	frameBatch   byte = 2 // table, rows
	frameMulti   byte = 3 // (table, rows)* — one atomic multi-table batch
	frameUpdate  byte = 4 // table, (pos, post-image row)*
	frameDelete  byte = 5 // table, pos*
	frameDDL     byte = 6 // JSON ddlRecord
	frameCompact byte = 8 // table, post-compaction row count (vacuum.go)
	frameStats   byte = 9 // per-column dictionaries + JSON table statistics (stats.go)
)

// walMaxFrame bounds a single frame body; larger length prefixes are
// treated as corruption.
const walMaxFrame = 1 << 30

// ddlRecord is the JSON payload of a frameDDL frame. DDL is rare, so the
// self-describing encoding is worth its verbosity.
type ddlRecord struct {
	// Op is one of create_table, create_index, drop_index, drop_table.
	Op string `json:"op"`
	// Def is the table definition for create_table.
	Def *rel.Table `json:"def,omitempty"`
	// Name is the index name (create_index, drop_index) or table name
	// (drop_table).
	Name string `json:"name,omitempty"`
	// Table, Cols, Unique and Ordered describe create_index; Ordered also
	// disambiguates drop_index.
	Table   string   `json:"table,omitempty"`
	Cols    []string `json:"cols,omitempty"`
	Unique  bool     `json:"unique,omitempty"`
	Ordered bool     `json:"ordered,omitempty"`
}

// SyncMode selects the WAL durability barrier policy.
type SyncMode int

const (
	// SyncAlways issues a durability barrier after every frame (default):
	// a committed operation survives any crash.
	SyncAlways SyncMode = iota
	// SyncNever leaves flushing to the OS: crashes may lose a committed
	// suffix, never corrupt the prefix.
	SyncNever
)

// walWriter appends frames to the active segment. Appends happen while
// the caller holds the mutated tables' row locks, so per-table WAL order
// matches apply order; wal.mu serializes cross-table appends.
type walWriter struct {
	mu       sync.Mutex
	fs       faultfs.FS
	dir      string
	f        faultfs.File
	seq      uint64 // last assigned sequence number
	segStart uint64
	sync     SyncMode
	frames   int // frames since the last snapshot
	broken   error
	buf      []byte
	obs      *obs.Metrics
	// lastSync is the duration of the most recent appendLocked fsync
	// (0 when the append didn't sync), read back by appendCtx to emit
	// the wal.fsync span.
	lastSync time.Duration
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016d.log", firstSeq)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%016d.snap", seq)
}

// newWALWriter opens a fresh segment whose first frame will carry
// lastSeq+1. The directory is fsynced after the create: without that
// barrier the segment is not a durable directory entry, and a power
// loss could drop the whole file despite every per-frame fsync.
func newWALWriter(fs faultfs.FS, dir string, lastSeq uint64, mode SyncMode, m *obs.Metrics) (*walWriter, error) {
	w := &walWriter{fs: fs, dir: dir, seq: lastSeq, segStart: lastSeq + 1, sync: mode, obs: m}
	f, err := fs.Create(filepath.Join(dir, segmentName(lastSeq+1)))
	if err != nil {
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	if m != nil {
		m.WALFsyncs.Inc()
	}
	w.f = f
	return w, nil
}

// append assigns the next sequence number to one frame and writes it
// out. A failed append marks the writer broken: the in-memory state may
// run ahead of the log, so no further mutation is allowed to claim
// durability.
func (w *walWriter) append(kind byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(kind, payload)
}

// appendCtx is append plus request tracing: when ctx carries a trace,
// the frame write becomes a wal.append span with a nested wal.fsync
// span covering the durability barrier. Untraced contexts pay one
// context lookup.
func (w *walWriter) appendCtx(ctx context.Context, kind byte, payload []byte) error {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return w.append(kind, payload)
	}
	sp := tr.StartChild(obs.CurrentSpan(ctx), "wal.append")
	sp.SetAttr("bytes", len(payload))
	w.mu.Lock()
	err := w.appendLocked(kind, payload)
	syncDur := w.lastSync
	w.mu.Unlock()
	if syncDur > 0 {
		tr.AddCompletedSpan(sp, "wal.fsync", time.Now().Add(-syncDur), syncDur)
	}
	sp.SetErr(err)
	sp.End()
	return err
}

func (w *walWriter) appendLocked(kind byte, payload []byte) error {
	if w.broken != nil {
		return fmt.Errorf("engine: wal unavailable after earlier failure: %w", w.broken)
	}
	w.seq++
	body := 8 + 1 + len(payload)
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(body))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.seq)
	w.buf = append(w.buf, kind)
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf[4:]))
	if _, err := w.f.Write(w.buf); err != nil {
		w.broken = err
		return err
	}
	w.lastSync = 0
	if w.sync == SyncAlways {
		t0 := time.Now()
		if err := w.f.Sync(); err != nil {
			w.broken = err
			return err
		}
		w.lastSync = time.Since(t0)
		if w.obs != nil {
			w.obs.WALFsyncs.Inc()
		}
	}
	w.frames++
	if w.obs != nil {
		w.obs.WALFrames.Inc()
		w.obs.WALBytes.Add(int64(len(w.buf)))
	}
	return nil
}

// rotateLocked closes the active segment and starts a new one at
// seq+1, deleting the now-redundant older segments and snapshots (all
// frames at or below snapSeq are covered by the snapshot). The caller
// holds w.mu and guarantees no frame beyond snapSeq exists.
func (w *walWriter) rotateLocked(snapSeq uint64) error {
	if w.f != nil {
		w.f.Close()
	}
	f, err := w.fs.Create(filepath.Join(w.dir, segmentName(snapSeq+1)))
	if err != nil {
		w.broken = err
		return err
	}
	w.f = f
	w.segStart = snapSeq + 1
	w.frames = 0
	// The new segment — and, crucially, the snapshot rename that made
	// the old ones redundant — must be durable directory entries before
	// any old file is deleted; otherwise a crash could surface the
	// deletions without the snapshot, losing the whole covered prefix.
	if err := w.fs.SyncDir(w.dir); err != nil {
		w.broken = err
		return err
	}
	if w.obs != nil {
		w.obs.WALFsyncs.Inc()
	}
	// Best-effort cleanup: the snapshot covers every frame at or below
	// snapSeq, so all other segments and older snapshots are redundant.
	// Stale files left by a crash here are harmless — recovery picks the
	// newest valid snapshot and filters frames by sequence number.
	names, err := w.fs.List(w.dir)
	if err != nil {
		return nil
	}
	for _, name := range names {
		if first, ok := parseSegmentName(name); ok && first != snapSeq+1 {
			w.fs.Remove(filepath.Join(w.dir, name))
		} else if seq, ok := parseSnapshotName(name); ok && seq < snapSeq {
			w.fs.Remove(filepath.Join(w.dir, name))
		} else if strings.HasSuffix(name, ".tmp") {
			w.fs.Remove(filepath.Join(w.dir, name))
		}
	}
	// Making the removals durable is space reclamation, not correctness:
	// resurrected stale files are filtered at recovery, so a failure
	// here (including an injected crash) is ignored.
	_ = w.fs.SyncDir(w.dir)
	return nil
}

// close flushes and closes the active segment.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return n, err == nil
}

func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	return n, err == nil
}

// listSorted returns the directory's segment and snapshot files in
// ascending sequence order.
func listWALFiles(fs faultfs.FS, dir string) (segments, snapshots []string, err error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		if _, ok := parseSegmentName(name); ok {
			segments = append(segments, name)
		} else if _, ok := parseSnapshotName(name); ok {
			snapshots = append(snapshots, name)
		}
	}
	sort.Strings(segments) // zero-padded names sort numerically
	sort.Strings(snapshots)
	return segments, snapshots, nil
}

// walFrame is one decoded frame.
type walFrame struct {
	seq     uint64
	kind    byte
	payload []byte
}

// decodeFrames parses a segment's bytes into valid frames, stopping at
// the first torn, truncated or corrupt frame.
func decodeFrames(data []byte) []walFrame {
	var frames []walFrame
	for len(data) >= 4 {
		body := binary.LittleEndian.Uint32(data)
		if body < 9 || body > walMaxFrame || len(data) < int(4+body+4) {
			break
		}
		payload := data[4 : 4+body]
		crc := binary.LittleEndian.Uint32(data[4+body:])
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		frames = append(frames, walFrame{
			seq:     binary.LittleEndian.Uint64(payload),
			kind:    payload[8],
			payload: payload[9:],
		})
		data = data[4+body+4:]
	}
	return frames
}

// readAll slurps one file through the FS abstraction.
func readAll(fs faultfs.FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// ---- payload value codec ----
//
// Row values are the engine's dynamic types (nil, int64, float64,
// string, bool), already coerced to their column types, so the codec is
// a tag byte plus a fixed or varint body.

func appendWALVal(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n'), nil
	case int64:
		buf = append(buf, 'i')
		return binary.AppendVarint(buf, x), nil
	case float64:
		buf = append(buf, 'f')
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case string:
		buf = append(buf, 's')
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...), nil
	case bool:
		if x {
			return append(buf, 'b', 1), nil
		}
		return append(buf, 'b', 0), nil
	default:
		return nil, fmt.Errorf("engine: wal cannot encode %T", v)
	}
}

func appendWALRow(buf []byte, row []any) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	var err error
	for _, v := range row {
		if buf, err = appendWALVal(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendWALString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendWALRows(buf []byte, rows [][]any) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	var err error
	for _, row := range rows {
		if buf, err = appendWALRow(buf, row); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// walReader decodes payloads defensively: every length is bounds-checked
// against the remaining bytes, so adversarial or bit-flipped payloads
// yield errors, never panics or huge allocations.
type walReader struct {
	data []byte
	pos  int
}

var errWALCorrupt = fmt.Errorf("engine: corrupt wal payload")

func (r *walReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errWALCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *walReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, errWALCorrupt
	}
	r.pos += n
	return v, nil
}

func (r *walReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.pos) {
		return nil, errWALCorrupt
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *walReader) byte1() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, errWALCorrupt
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *walReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	return string(b), err
}

func (r *walReader) val() (any, error) {
	tag, err := r.byte1()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 'n':
		return nil, nil
	case 'i':
		return r.varint()
	case 'f':
		b, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case 's':
		return r.str()
	case 'b':
		b, err := r.byte1()
		return b != 0, err
	default:
		return nil, errWALCorrupt
	}
}

func (r *walReader) row() ([]any, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) { // each value costs >= 1 byte
		return nil, errWALCorrupt
	}
	row := make([]any, n)
	for i := range row {
		if row[i], err = r.val(); err != nil {
			return nil, err
		}
	}
	return row, nil
}

func (r *walReader) rows() ([][]any, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, errWALCorrupt
	}
	rows := make([][]any, n)
	for i := range rows {
		if rows[i], err = r.row(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// ---- frame payload builders ----

func encodeInsertFrame(table string, row []any) ([]byte, error) {
	buf := appendWALString(nil, table)
	return appendWALRow(buf, row)
}

func encodeBatchFrame(table string, rows [][]any) ([]byte, error) {
	buf := appendWALString(nil, table)
	return appendWALRows(buf, rows)
}

func encodeMultiFrame(tables []string, batches [][][]any) ([]byte, error) {
	buf := binary.AppendUvarint(nil, uint64(len(tables)))
	var err error
	for i, table := range tables {
		buf = appendWALString(buf, table)
		if buf, err = appendWALRows(buf, batches[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func encodeUpdateFrame(table string, positions []int, rows [][]any) ([]byte, error) {
	buf := appendWALString(nil, table)
	buf = binary.AppendUvarint(buf, uint64(len(positions)))
	var err error
	for i, pos := range positions {
		buf = binary.AppendUvarint(buf, uint64(pos))
		if buf, err = appendWALRow(buf, rows[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func encodeDeleteFrame(table string, positions []int) []byte {
	buf := appendWALString(nil, table)
	buf = binary.AppendUvarint(buf, uint64(len(positions)))
	for _, pos := range positions {
		buf = binary.AppendUvarint(buf, uint64(pos))
	}
	return buf
}

func encodeDDLFrame(rec ddlRecord) ([]byte, error) {
	return json.Marshal(rec)
}

// encodeCompactFrame records a vacuum compaction: the replayer re-runs
// the (deterministic) compaction and validates the surviving row count
// against keep.
func encodeCompactFrame(table string, keep int) []byte {
	buf := appendWALString(nil, table)
	return binary.AppendUvarint(buf, uint64(keep))
}
