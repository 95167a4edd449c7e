package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/obs"
)

// ErrNotDurable is returned by durability operations on a database that
// was opened without a data directory.
var ErrNotDurable = errors.New("engine: database is not durable (no data directory)")

// ErrUnsupportedFormat is returned when a data directory holds an
// intact (checksum-valid) WAL frame or snapshot in a format version
// this build does not read. It is never treated as a torn tail: the
// open fails and the files are left untouched.
var ErrUnsupportedFormat = errors.New("engine: unsupported store format")

// DurabilityOptions configures OpenAtOpts.
type DurabilityOptions struct {
	// SnapshotEvery takes a snapshot (and truncates the log) after this
	// many WAL frames; 0 disables automatic snapshots (Checkpoint can
	// still be called explicitly).
	SnapshotEvery int
	// Sync selects the durability-barrier policy (default SyncAlways).
	Sync SyncMode
	// Metrics, when non-nil, receives WAL/snapshot/recovery counters and
	// is attached to the recovered database (like SetMetrics).
	Metrics *obs.Metrics
	// FS overrides the filesystem — tests inject faults here. Nil means
	// the real OS filesystem.
	FS faultfs.FS
	// VerifyOnRecover runs VerifyIntegrity after recovery and fails the
	// open if the recovered state is internally inconsistent.
	VerifyOnRecover bool
	// AllowStale accepts a recovery that falls back past an unreadable
	// newer snapshot whose frames the WAL no longer covers (they were
	// deleted at checkpoint): committed data is knowingly lost and the
	// regression is counted in Metrics. Without it such an open fails —
	// silent time travel is worse than an error.
	AllowStale bool
}

// OpenAt opens a durable database rooted at dir, recovering whatever a
// previous process left there: the newest valid snapshot plus the WAL
// tail, stopping at the last valid frame (a torn or truncated final
// record is expected after a crash, not an error). An empty or missing
// directory yields an empty database. Every subsequent committed
// mutation is appended to the write-ahead log before the call returns.
func OpenAt(dir string) (*DB, error) {
	return OpenAtOpts(dir, DurabilityOptions{})
}

// OpenAtOpts is OpenAt with explicit durability options.
func OpenAtOpts(dir string, opts DurabilityOptions) (*DB, error) {
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("engine: open %s: %w", dir, err)
	}
	db := Open()
	start := time.Now()
	lastSeq, err := db.recoverFrom(fs, dir, opts.Metrics, opts.AllowStale)
	if err != nil {
		return nil, fmt.Errorf("engine: recover %s: %w", dir, err)
	}
	if opts.Metrics != nil {
		opts.Metrics.Recoveries.Inc()
		opts.Metrics.RecoveryLatency.ObserveDuration(time.Since(start))
	}
	if opts.VerifyOnRecover {
		if err := db.VerifyIntegrity(); err != nil {
			return nil, fmt.Errorf("engine: recover %s: %w", dir, err)
		}
	}
	w, err := newWALWriter(fs, dir, lastSeq, opts.Sync, opts.Metrics)
	if err != nil {
		return nil, fmt.Errorf("engine: open wal in %s: %w", dir, err)
	}
	db.wal = w
	db.walFS = fs
	db.walDir = dir
	db.snapshotEvery = opts.SnapshotEvery
	if opts.Metrics != nil {
		db.SetMetrics(opts.Metrics)
	}
	return db, nil
}

// recoverFrom rebuilds the state from the newest valid snapshot plus
// the contiguous valid WAL frames after it, and returns the last
// applied sequence number. The database is not yet shared, so no locks
// are taken; foreign-key enforcement is suspended during replay (the
// logged operations were validated when they first ran, and loaders may
// have toggled enforcement, which is a session setting, not data).
func (db *DB) recoverFrom(fs faultfs.FS, dir string, m *obs.Metrics, allowStale bool) (uint64, error) {
	segments, snapshots, err := listWALFiles(fs, dir)
	if err != nil {
		return 0, err
	}
	var snapSeq uint64
	var skippedSeq uint64 // newest unreadable snapshot we fell back past
	for i := len(snapshots) - 1; i >= 0; i-- {
		data, rerr := readAll(fs, filepath.Join(dir, snapshots[i]))
		var lerr error
		var tables map[string]*table
		var order []string
		var seq uint64
		if rerr == nil {
			tables, order, seq, lerr = loadSnapshot(data)
		}
		if errors.Is(lerr, ErrUnsupportedFormat) {
			return 0, fmt.Errorf("%s: %w", snapshots[i], lerr)
		}
		if rerr != nil || lerr != nil {
			// Fall back to an older snapshot, remembering how far forward
			// the broken one reached (its name carries the covered seq).
			if s, ok := parseSnapshotName(snapshots[i]); ok && s > skippedSeq {
				skippedSeq = s
			}
			continue
		}
		db.tables, db.order, snapSeq = tables, order, seq
		break
	}
	// Snapshot-loaded tables carry none of the MVCC bookkeeping
	// (loadSnapshot predates the catalog); wire them to this database's
	// epoch clock and give them a live refcount before replay.
	for _, t := range db.tables {
		t.clock = &db.clock
		t.liveRefs = &atomic.Int64{}
	}
	enforce := db.enforceFK
	db.enforceFK = false
	defer func() { db.enforceFK = enforce }()
	last := snapSeq
replay:
	for _, seg := range segments {
		data, rerr := readAll(fs, filepath.Join(dir, seg))
		if rerr != nil {
			continue // a vanished segment shows up as a sequence gap below
		}
		for _, fr := range decodeFrames(data) {
			if fr.seq <= snapSeq {
				continue // already covered by the snapshot
			}
			if fr.seq != last+1 {
				break replay // gap or duplicate: the durable prefix ends here
			}
			if err := db.applyFrame(fr); err != nil {
				return 0, fmt.Errorf("wal frame %d: %w", fr.seq, err)
			}
			last++
			if m != nil {
				m.WALReplayFrames.Inc()
			}
		}
	}
	// Falling back past a broken newer snapshot is only safe when the WAL
	// still covers the frames that snapshot did; checkpoints delete those
	// segments, so usually it does not — and the recovered state would
	// silently be older than what the last process committed.
	if skippedSeq > last {
		if !allowStale {
			return 0, fmt.Errorf(
				"engine: newest snapshot (seq %d) is unreadable and the wal ends at seq %d: recovery would lose committed data (set AllowStale to accept the older state)",
				skippedSeq, last)
		}
		if m != nil {
			m.RecoveryStaleFallbacks.Inc()
		}
	}
	return last, nil
}

// applyFrame re-executes one WAL frame. Payloads are fully decoded and
// validated before any mutation, so CRC-valid frames either apply
// exactly as they originally ran or fail the recovery with an error —
// never a panic, never a half-checked write.
func (db *DB) applyFrame(fr walFrame) error {
	r := &walReader{data: fr.payload}
	switch fr.kind {
	case frameInsert:
		name, err := r.str()
		if err != nil {
			return err
		}
		row, err := r.row()
		if err != nil {
			return err
		}
		_, err = db.insertLocked(context.Background(), name, row)
		return err

	case frameBatch:
		name, err := r.str()
		if err != nil {
			return err
		}
		rows, err := r.rows()
		if err != nil {
			return err
		}
		return db.replayBatch(name, rows)

	case frameMulti:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(fr.payload)) {
			return errWALCorrupt
		}
		names := make([]string, n)
		batches := make([][][]any, n)
		for i := range names {
			if names[i], err = r.str(); err != nil {
				return err
			}
			if batches[i], err = r.rows(); err != nil {
				return err
			}
		}
		starts := make(map[string]int)
		for i, name := range names {
			t := db.tables[name]
			if t == nil {
				db.rollbackMulti(starts)
				return fmt.Errorf("%w: %q", ErrNoTable, name)
			}
			if _, ok := starts[name]; !ok {
				starts[name] = len(t.rows)
			}
			for _, row := range batches[i] {
				stored, cerr := coerceRow(t, name, row)
				if cerr == nil {
					_, cerr = db.applyRowLocked(t, name, stored)
				}
				if cerr != nil {
					db.rollbackMulti(starts)
					return cerr
				}
			}
		}
		return nil

	case frameUpdate:
		name, err := r.str()
		if err != nil {
			return err
		}
		t := db.tables[name]
		if t == nil {
			return fmt.Errorf("%w: %q", ErrNoTable, name)
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(fr.payload)) {
			return errWALCorrupt
		}
		positions := make([]int, n)
		rows := make([][]any, n)
		for i := range positions {
			p, perr := r.uvarint()
			if perr != nil {
				return perr
			}
			row, rerr := r.row()
			if rerr != nil {
				return rerr
			}
			if p >= uint64(len(t.rows)) || t.rows[p] == nil || len(row) != len(t.def.Columns) {
				return errWALCorrupt
			}
			positions[i], rows[i] = int(p), row
		}
		for i, pos := range positions {
			old, newRow := t.rows[pos], rows[i]
			for _, ix := range t.indexes {
				oldKey, newKey := ix.keyOf(old), ix.keyOf(newRow)
				if oldKey == newKey {
					continue
				}
				if ix.unique && len(ix.m[newKey]) > 0 {
					return fmt.Errorf("%w: replayed update duplicates key in %s (index %s)",
						ErrConstraint, name, ix.name)
				}
				ix.m[oldKey] = removeInt(ix.m[oldKey], pos)
				ix.m[newKey] = append(ix.m[newKey], pos)
			}
			t.rows[pos] = newRow
		}
		t.markOrderedDirty()
		return nil

	case frameDelete:
		name, err := r.str()
		if err != nil {
			return err
		}
		t := db.tables[name]
		if t == nil {
			return fmt.Errorf("%w: %q", ErrNoTable, name)
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(fr.payload)) {
			return errWALCorrupt
		}
		positions := make([]int, n)
		for i := range positions {
			p, perr := r.uvarint()
			if perr != nil {
				return perr
			}
			if p >= uint64(len(t.rows)) || t.rows[p] == nil {
				return errWALCorrupt
			}
			positions[i] = int(p)
		}
		for _, pos := range positions {
			row := t.rows[pos]
			for _, ix := range t.indexes {
				key := ix.keyOf(row)
				ix.m[key] = removeInt(ix.m[key], pos)
			}
			t.rows[pos] = nil
		}
		t.markOrderedDirty()
		return nil

	case frameStats:
		return db.applyStatsFrame(r)

	case frameCompact:
		name, err := r.str()
		if err != nil {
			return err
		}
		keep, err := r.uvarint()
		if err != nil {
			return err
		}
		t := db.tables[name]
		if t == nil {
			return fmt.Errorf("%w: %q", ErrNoTable, name)
		}
		// db.wal is nil during recovery, so compactLocked's logCompact is
		// a no-op: the compaction re-runs deterministically and the logged
		// row count cross-checks it.
		if _, err := db.compactLocked(name, t); err != nil {
			return err
		}
		if uint64(len(t.rows)) != keep {
			return errWALCorrupt
		}
		return nil

	case frameDDL:
		var rec ddlRecord
		if err := json.Unmarshal(fr.payload, &rec); err != nil {
			return fmt.Errorf("engine: corrupt ddl frame: %w", err)
		}
		switch rec.Op {
		case "create_table":
			if rec.Def == nil || rec.Def.Name == "" {
				return errWALCorrupt
			}
			return db.CreateTable(rec.Def)
		case "create_index":
			if rec.Ordered {
				if len(rec.Cols) != 1 {
					return errWALCorrupt
				}
				return db.CreateOrderedIndex(rec.Name, rec.Table, rec.Cols[0])
			}
			return db.CreateIndex(rec.Name, rec.Table, rec.Cols, rec.Unique)
		case "drop_index":
			if rec.Ordered {
				return db.DropOrderedIndex(rec.Name)
			}
			return db.DropIndex(rec.Name)
		case "drop_table":
			return db.DropTable(rec.Name)
		default:
			return errWALCorrupt
		}

	default:
		// The frame passed its CRC, so this is not damage: a different
		// format version wrote it.
		return fmt.Errorf("%w: wal frame kind %d", ErrUnsupportedFormat, fr.kind)
	}
}

// replayBatch re-applies one logged batch atomically.
func (db *DB) replayBatch(name string, rows [][]any) error {
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	start := len(t.rows)
	for _, row := range rows {
		stored, err := coerceRow(t, name, row)
		if err == nil {
			_, err = db.applyRowLocked(t, name, stored)
		}
		if err != nil {
			db.rollbackToLocked(t, start)
			return err
		}
	}
	return nil
}

// rollbackMulti unwinds the tables touched by a partially-applied
// multi-table frame.
func (db *DB) rollbackMulti(starts map[string]int) {
	for name, start := range starts {
		if t := db.tables[name]; t != nil {
			db.rollbackToLocked(t, start)
		}
	}
}

// Checkpoint takes a snapshot of the current state, rotates the WAL to
// a fresh segment, and deletes the log and snapshot files the new
// snapshot makes redundant. It runs under read locks on every table, so
// it serializes against writers but not readers — and since cursors
// release their locks at open (MVCC snapshot reads, version.go), a
// slow streaming client can no longer wedge a checkpoint behind its
// open cursor.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	start := time.Now()
	db.mu.RLock()
	defer db.mu.RUnlock()
	unlock := db.lockRows(nil, db.order)
	defer unlock()
	db.wal.mu.Lock()
	defer db.wal.mu.Unlock()
	if db.wal.broken != nil {
		return fmt.Errorf("engine: wal unavailable after earlier failure: %w", db.wal.broken)
	}
	seq := db.wal.seq
	if err := db.writeSnapshotLocked(db.walFS, db.walDir, seq); err != nil {
		return err
	}
	if err := db.wal.rotateLocked(seq); err != nil {
		return err
	}
	if db.obs != nil {
		db.obs.Snapshots.Inc()
		db.obs.SnapshotLatency.ObserveDuration(time.Since(start))
	}
	return nil
}

// maybeCheckpoint triggers an automatic checkpoint when the configured
// frame budget is used up. Called by the public mutators after their
// locks are released; a checkpoint failure is not the mutation's error
// (the mutation is durable in the WAL), and a broken writer surfaces on
// the next append.
func (db *DB) maybeCheckpoint() {
	w := db.wal
	if w == nil || db.snapshotEvery <= 0 {
		return
	}
	w.mu.Lock()
	due := w.frames >= db.snapshotEvery && w.broken == nil
	w.mu.Unlock()
	if due {
		_ = db.Checkpoint()
	}
}

// Close flushes and closes the write-ahead log. The in-memory state
// stays usable; on a non-durable database Close is a no-op.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.close()
}

// VerifyIntegrity cross-checks the redundant state after a recovery:
// every hash index must agree with a fresh rebuild from the rows, and
// every foreign key must resolve. It is an assertion for tests and
// recovery auditing, not a normal-path operation.
func (db *DB) VerifyIntegrity() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	unlock := db.lockRows(nil, db.order)
	defer unlock()
	for _, name := range db.order {
		t := db.tables[name]
		for _, ix := range t.indexes {
			rebuilt := make(map[string][]int)
			for pos, row := range t.rows {
				if row == nil {
					continue
				}
				key := ix.keyOf(row)
				if ix.unique && len(rebuilt[key]) > 0 {
					return fmt.Errorf("%w: table %s index %s has duplicate key", ErrConstraint, name, ix.name)
				}
				rebuilt[key] = append(rebuilt[key], pos)
			}
			for key, want := range rebuilt {
				if !samePositions(ix.m[key], want) {
					return fmt.Errorf("engine: table %s index %s out of sync on key %q", name, ix.name, key)
				}
			}
			for key, have := range ix.m {
				if len(have) > 0 && len(rebuilt[key]) == 0 {
					return fmt.Errorf("engine: table %s index %s has dangling key %q", name, ix.name, key)
				}
			}
		}
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

func samePositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ---- WAL logging hooks (no-ops when the database is not durable) ----

func (db *DB) logInsert(ctx context.Context, table string, row []any) error {
	if db.wal == nil {
		return nil
	}
	payload, err := encodeInsertFrame(table, row)
	if err != nil {
		return err
	}
	return db.wal.appendCtx(ctx, frameInsert, payload)
}

func (db *DB) logBatch(table string, rows [][]any) error {
	if db.wal == nil {
		return nil
	}
	payload, err := encodeBatchFrame(table, rows)
	if err != nil {
		return err
	}
	return db.wal.append(frameBatch, payload)
}

func (db *DB) logMulti(tables []string, batches [][][]any) error {
	if db.wal == nil {
		return nil
	}
	payload, err := encodeMultiFrame(tables, batches)
	if err != nil {
		return err
	}
	return db.wal.append(frameMulti, payload)
}

func (db *DB) logUpdate(ctx context.Context, table string, positions []int, rows [][]any) error {
	if db.wal == nil || len(positions) == 0 {
		return nil
	}
	payload, err := encodeUpdateFrame(table, positions, rows)
	if err != nil {
		return err
	}
	return db.wal.appendCtx(ctx, frameUpdate, payload)
}

func (db *DB) logDelete(ctx context.Context, table string, positions []int) error {
	if db.wal == nil || len(positions) == 0 {
		return nil
	}
	return db.wal.appendCtx(ctx, frameDelete, encodeDeleteFrame(table, positions))
}

func (db *DB) logCompact(table string, keep int) error {
	if db.wal == nil {
		return nil
	}
	return db.wal.append(frameCompact, encodeCompactFrame(table, keep))
}

func (db *DB) logDDL(rec ddlRecord) error {
	if db.wal == nil {
		return nil
	}
	payload, err := encodeDDLFrame(rec)
	if err != nil {
		return err
	}
	return db.wal.append(frameDDL, payload)
}
