package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"

	"xmlrdb/internal/engine"
	"xmlrdb/internal/faultfs"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public functions. Start and End are
// nanoseconds since the track began; Parent is the index of the
// enclosing span in the same track (-1 at the top); Op identifies the
// operation (load chunk, request or written document) the span belongs
// to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// track is the span log of one sequential activity (the loader, the
// writer). Spans nest by call order, so a stack of open spans gives each
// new span its parent. A nil track records nothing, which is how the
// untraced run shares the traced run's code.
type track struct {
	Name  string `json:"track"`
	Spans []span `json:"spans"`
	t0    time.Time
	open  []int
	op    int
}

func newTrack(name string) *track { return &track{Name: name, t0: time.Now()} }

// setOp sets the operation id stamped on spans begun from now on.
func (t *track) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

func (t *track) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.Spans))
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
}

func (t *track) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.Spans[i].End = int64(time.Since(t.t0))
}

// selfTimes adds up, per span name, each span's duration minus the part
// its direct children cover, and counts the spans.
func (t *track) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return
	}
	for _, s := range t.Spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		count[s.Name]++
		if s.Parent >= 0 {
			self[t.Spans[s.Parent].Name] -= d
		}
	}
	return
}

// selfByOp returns the self time in µs of every span called name, in
// the order they began.
func (t *track) selfByOp(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for i, s := range t.Spans {
		if s.Name != name {
			continue
		}
		d := time.Duration(s.End - s.Start)
		for _, c := range t.Spans[i+1:] {
			if c.Start >= s.End {
				break
			}
			if c.Parent == i {
				d -= time.Duration(c.End - c.Start)
			}
		}
		out = append(out, us(d))
	}
	return out
}

// writeTracks writes the tracks as one JSON document.
func writeTracks(path string, tracks []*track) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tracks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedEngine is *engine.DB with spans around the insert entry points
// the loader uses: it implements shred.MultiBatchEngine, so a staged
// document still flushes as one atomic multi-table batch.
type timedEngine struct {
	*engine.DB
	t    *track
	rows int
}

func (e *timedEngine) Insert(table string, row []any) (int, error) {
	e.t.begin("engine.insert")
	defer e.t.end()
	e.rows++
	return e.DB.Insert(table, row)
}

func (e *timedEngine) InsertMap(table string, vals map[string]any) (int, error) {
	e.t.begin("engine.insert")
	defer e.t.end()
	e.rows++
	return e.DB.InsertMap(table, vals)
}

func (e *timedEngine) InsertBatch(table string, rows [][]any) (int, error) {
	e.t.begin("engine.insert")
	defer e.t.end()
	e.rows += len(rows)
	return e.DB.InsertBatch(table, rows)
}

func (e *timedEngine) InsertBatchMulti(tables []string, batches [][][]any) (int, error) {
	e.t.begin("engine.insert")
	defer e.t.end()
	for _, b := range batches {
		e.rows += len(b)
	}
	return e.DB.InsertBatchMulti(tables, batches)
}

// timedFS is the real filesystem with spans around the calls the
// durability layer makes. Files are told apart by name: wal-*.log
// segments are the log, everything else (snap-*.snap, its .tmp, the
// directory sync that publishes a snapshot or a rotated segment) is
// snapshot work.
type timedFS struct {
	faultfs.OS
	t         *track
	snapBytes int64
}

func fileLayer(name string) string {
	if strings.Contains(name, "wal-") {
		return "wal"
	}
	return "snapshot"
}

func (fs *timedFS) Create(name string) (faultfs.File, error) {
	f, err := fs.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs, layer: fileLayer(name)}, nil
}

func (fs *timedFS) Rename(oldname, newname string) error {
	fs.t.begin("snapshot.publish")
	defer fs.t.end()
	return fs.OS.Rename(oldname, newname)
}

func (fs *timedFS) Remove(name string) error {
	fs.t.begin("snapshot.publish")
	defer fs.t.end()
	return fs.OS.Remove(name)
}

func (fs *timedFS) SyncDir(dir string) error {
	fs.t.begin("snapshot.publish")
	defer fs.t.end()
	return fs.OS.SyncDir(dir)
}

type timedFile struct {
	faultfs.File
	fs    *timedFS
	layer string
}

func (f *timedFile) Write(p []byte) (int, error) {
	f.fs.t.begin(f.layer + ".write")
	defer f.fs.t.end()
	if f.layer == "snapshot" {
		f.fs.snapBytes += int64(len(p))
	}
	return f.File.Write(p)
}

func (f *timedFile) Sync() error {
	f.fs.t.begin(f.layer + ".fsync")
	defer f.fs.t.end()
	return f.File.Sync()
}
