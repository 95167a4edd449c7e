package shred

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/xmltree"
)

func bookDoc(t *testing.T, l *Loader) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseWith(paper.BookXML, xmltree.Options{ExternalDTD: l.res.Original})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestLoadCorpusPanicRecovered checks a panicking per-document worker
// (here: a nil document) is reported as that document's DocError rather
// than crashing the corpus load, and other documents still load.
func TestLoadCorpusPanicRecovered(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	docs := []*xmltree.Document{bookDoc(t, l), nil, bookDoc(t, l)}
	_, err := l.LoadCorpusNamed(docs, []string{"ok-0", "boom", "ok-2"}, 1)
	var ce *CorpusError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorpusError", err)
	}
	found := false
	for _, de := range ce.Docs {
		if de.Name == "boom" {
			found = true
			if !strings.Contains(de.Err.Error(), "panic") {
				t.Errorf("doc error %v does not mention the panic", de.Err)
			}
		}
	}
	if !found {
		t.Fatalf("no DocError for the panicking document: %v", ce)
	}
	// The document before the panic landed whole.
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got < 1 {
		t.Errorf("books = %d, want at least the pre-panic document", got)
	}
	if err := db.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}

// TestLoadCorpusContextCancelled checks a cancelled context stops the
// corpus load and surfaces the context's error.
func TestLoadCorpusContextCancelled(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	docs := []*xmltree.Document{bookDoc(t, l), bookDoc(t, l), bookDoc(t, l)}
	_, err := l.LoadCorpusContext(ctx, docs, nil, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got != 0 {
		t.Errorf("cancelled before start but loaded %d documents", got)
	}
	if err := db.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}

// TestResumeFrom checks a fresh loader over an already-populated
// database continues the document and entity id sequences instead of
// colliding with stored rows.
func TestResumeFrom(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	for i := 0; i < 2; i++ {
		if _, err := l.LoadXML(paper.BookXML, "pre"); err != nil {
			t.Fatal(err)
		}
	}
	// A second loader simulates reopening after recovery: its counters
	// start at zero and must be reseeded from the stored rows.
	l2, err := NewLoader(l.res, l.mapping, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.ResumeFrom(db); err != nil {
		t.Fatal(err)
	}
	st, err := l2.LoadXML(paper.BookXML, "post")
	if err != nil {
		t.Fatalf("load after resume: %v", err)
	}
	if st.DocID != 3 {
		t.Errorf("resumed doc id = %d, want 3", st.DocID)
	}
	// Three whole books, no id collisions, FKs intact.
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got != 3 {
		t.Errorf("books = %d, want 3", got)
	}
	ids := mustQuery(db, `SELECT id FROM e_author ORDER BY id`)
	seen := map[int64]bool{}
	for _, r := range ids.Data {
		id := r[0].(int64)
		if seen[id] {
			t.Fatalf("duplicate author id %d after resume", id)
		}
		seen[id] = true
	}
	if err := db.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs: %v", err)
	}
}

// multiRecorder wraps an engine and counts which batch entry points the
// staged flush used.
type multiRecorder struct {
	*engine.DB
	single int
	multi  int
}

func (m *multiRecorder) InsertBatch(table string, rows [][]any) (int, error) {
	m.single++
	return m.DB.InsertBatch(table, rows)
}

func (m *multiRecorder) InsertBatchMulti(tables []string, batches [][][]any) (int, error) {
	m.multi++
	return m.DB.InsertBatchMulti(tables, batches)
}

// TestStagedFlushUsesMultiBatch checks a staged document flushes as one
// atomic multi-table batch when the engine supports it — the property
// that makes a crash lose whole documents only.
func TestStagedFlushUsesMultiBatch(t *testing.T) {
	l, db := setup(t, paper.Example1DTD, ermap.Options{})
	rec := &multiRecorder{DB: db}
	l.db = rec
	if _, err := l.LoadDocument(bookDoc(t, l), "b"); err != nil {
		t.Fatal(err)
	}
	if rec.multi != 1 || rec.single != 0 {
		t.Errorf("flush used %d multi / %d single calls, want 1/0", rec.multi, rec.single)
	}
	if got := count(t, db, `SELECT COUNT(*) FROM e_book`); got != 1 {
		t.Errorf("books = %d", got)
	}
}
