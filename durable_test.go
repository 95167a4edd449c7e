package xmlrdb

import (
	"fmt"
	"strings"
	"testing"

	"xmlrdb/internal/paper"
)

// TestPipelineDurableReopen loads documents into a durable pipeline,
// closes it, reopens the same directory and checks every document
// survived — then keeps loading without id collisions.
func TestPipelineDurableReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, SnapshotEvery: 0}
	p, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := p.LoadXML(paper.BookXML, "book1")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := p.LoadXML(paper.ArticleXML, "article1")
	if err != nil {
		t.Fatal(err)
	}
	want1, err := p.Reconstruct(id1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both documents recover, and the id space continues.
	p2, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	ids, err := p2.DocumentIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("recovered %d documents, want 2: %v", len(ids), ids)
	}
	got1, err := p2.Reconstruct(id1)
	if err != nil {
		t.Fatalf("reconstruct recovered doc: %v", err)
	}
	if got1 != want1 {
		t.Errorf("recovered reconstruction differs:\n%s\nvs\n%s", got1, want1)
	}
	id3, err := p2.LoadXML(paper.BookXML, "book2")
	if err != nil {
		t.Fatalf("load after reopen: %v", err)
	}
	if id3 == id1 || id3 == id2 {
		t.Fatalf("reused document id %d after reopen", id3)
	}
	if err := p2.DB.CheckAllFKs(); err != nil {
		t.Errorf("CheckAllFKs after resume: %v", err)
	}
	rows, err := p2.Query(`/book`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Errorf("books after resume = %d, want 2", len(rows.Data))
	}
}

// TestPipelineDurableCheckpoint checks explicit checkpointing truncates
// the log and the snapshot alone recovers the store.
func TestPipelineDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir}
	p, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadXML(paper.BookXML, "b"); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer p2.Close()
	ids, err := p2.DocumentIDs()
	if err != nil || len(ids) != 1 {
		t.Fatalf("recovered docs = %v, %v", ids, err)
	}
}

// TestPipelineDataDirMismatch checks opening a data directory with a
// different DTD fails with a clear error instead of corrupting it.
func TestPipelineDataDirMismatch(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(paper.Example1DTD, Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadXML(paper.BookXML, "b"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(`<!ELEMENT other (#PCDATA)>`, Config{DataDir: dir})
	if err == nil {
		t.Fatal("mismatched DTD opened a foreign data directory")
	}
	if !strings.Contains(err.Error(), "does not match") {
		t.Errorf("mismatch error %v lacks explanation", err)
	}
}

// TestPipelineDataDirColumnMismatch: a different DTD whose tables happen
// to share names must still be rejected — recovered table definitions
// are compared structurally (columns, types, constraints), not merely by
// name, so the store cannot be opened under a schema that would silently
// misread its rows.
func TestPipelineDataDirColumnMismatch(t *testing.T) {
	const withAttr = `<!ELEMENT book (title)>
<!ATTLIST book isbn CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>`
	const withoutAttr = `<!ELEMENT book (title)>
<!ELEMENT title (#PCDATA)>`
	dir := t.TempDir()
	p, err := Open(withAttr, Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(withoutAttr, Config{DataDir: dir})
	if err == nil {
		t.Fatal("DTD with different columns opened a foreign data directory")
	}
	if !strings.Contains(err.Error(), "does not match") {
		t.Errorf("mismatch error %v lacks explanation", err)
	}
}

// TestPipelineCheckpointInMemory checks Checkpoint on an in-memory
// pipeline reports ErrNotDurable.
func TestPipelineCheckpointInMemory(t *testing.T) {
	p, err := Open(paper.Example1DTD, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on in-memory pipeline succeeded")
	}
	if err := p.Close(); err != nil {
		t.Errorf("Close on in-memory pipeline: %v", err)
	}
}

// loadEntryPoints are the single-document load methods of Pipeline; all
// of them must commit a document exactly as LoadCorpus does.
var loadEntryPoints = []struct {
	name string
	load func(p *Pipeline, src, name string) error
}{
	{"LoadXML", func(p *Pipeline, src, name string) error {
		_, err := p.LoadXML(src, name)
		return err
	}},
	{"LoadValidXML", func(p *Pipeline, src, name string) error {
		_, err := p.LoadValidXML(src, name)
		return err
	}},
	{"LoadDocument", func(p *Pipeline, src, name string) error {
		doc, err := p.ParseDocument(src)
		if err != nil {
			return err
		}
		_, err = p.LoadDocument(doc, name)
		return err
	}},
	{"VerifyRoundTrip", func(p *Pipeline, src, name string) error {
		return p.VerifyRoundTrip(src, name)
	}},
}

// TestDurableLoadOneFramePerDocument: on a durable store every load
// entry point costs one WAL frame and one fsync per document, whichever
// batch layout the schema selects (FK-ordered tables, or document-order
// runs when the fold strategy makes the FK graph cyclic).
func TestDurableLoadOneFramePerDocument(t *testing.T) {
	const recursiveDTD = `<!ELEMENT a (b*)> <!ELEMENT b (a*)>`
	cases := []struct {
		name, dtd, xml string
		strategy       Strategy
		cyclic         bool
	}{
		{"junction", paper.Example1DTD, paper.BookXML, StrategyJunction, false},
		{"fold", paper.Example1DTD, paper.BookXML, StrategyFoldFK, false},
		{"fold recursive", recursiveDTD, `<a><b><a></a><a><b></b></a></b><b></b></a>`, StrategyFoldFK, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Open(c.dtd, Config{DataDir: t.TempDir(), Strategy: c.strategy})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for _, ep := range loadEntryPoints {
				frames, fsyncs := p.Obs.WALFrames.Load(), p.Obs.WALFsyncs.Load()
				if err := ep.load(p, c.xml, ep.name); err != nil {
					t.Fatalf("%s: %v", ep.name, err)
				}
				if df, ds := p.Obs.WALFrames.Load()-frames, p.Obs.WALFsyncs.Load()-fsyncs; df != 1 || ds != 1 {
					t.Errorf("%s: one document cost %d WAL frames and %d fsyncs, want 1 and 1", ep.name, df, ds)
				}
			}
			if got := p.Obs.FlushFallbacks.Load() > 0; got != c.cyclic {
				t.Errorf("document-order plan used = %v, want %v", got, c.cyclic)
			}
		})
	}
}

// TestDurableFailedLoadLeavesNothing: a document that fails after the
// traversal has already produced rows (duplicate ID on the second
// author) stores nothing, logs nothing, and the store reopens to the
// same state.
func TestDurableFailedLoadLeavesNothing(t *testing.T) {
	const dupID = `<article><title>T</title>` +
		`<author id="a1"><name><lastname>x</lastname></name></author>` +
		`<author id="a1"><name><lastname>y</lastname></name></author></article>`
	state := func(p *Pipeline) string {
		ids, err := p.DocumentIDs()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("rows=%d docs=%v", p.DB.TotalRows(), ids)
	}
	cfg := Config{DataDir: t.TempDir()}
	p, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadXML(paper.BookXML, "good"); err != nil {
		t.Fatal(err)
	}
	want, frames := state(p), p.Obs.WALFrames.Load()
	for _, ep := range loadEntryPoints {
		if err := ep.load(p, dupID, "bad"); err == nil {
			t.Errorf("%s: duplicate ID loaded", ep.name)
		}
		if got := state(p); got != want {
			t.Errorf("%s: failed load changed the store: %s, want %s", ep.name, got, want)
		}
		if got := p.Obs.WALFrames.Load(); got != frames {
			t.Errorf("%s: failed load wrote %d WAL frames", ep.name, got-frames)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(paper.Example1DTD, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if got := state(p2); got != want {
		t.Errorf("reopened store: %s, want %s", got, want)
	}
}
