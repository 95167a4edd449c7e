package xmlrdb_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlrdb"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/serve"
)

// Allocation ceilings: exact per-operation allocation counts of the
// main read and load paths on the paper DTD. Allocation counts repeat
// between runs, so they gate CPU-side work without a quiet host. A
// ceiling may only go down, in the change that earned it; raising one
// is a regression that must be justified.

// allocDocs is the number of documents preloaded before measuring: a
// third each of the paper's book, article and editor samples.
const allocDocs = 120

func allocPipeline(t *testing.T) *xmlrdb.Pipeline {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p, err := xmlrdb.Open(paper.Example1DTD, xmlrdb.Config{PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{paper.BookXML, paper.ArticleXML, paper.EditorXML}
	for i := 0; i < allocDocs; i++ {
		// Editors are numbered so one /path predicate selects one row.
		src := strings.Replace(srcs[i%len(srcs)], `"Knuth"`, fmt.Sprintf(`"Knuth %d"`, i), 1)
		if _, err := p.LoadXML(src, "doc"); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// checkAllocs fails when fn allocates more than ceiling times per call.
func checkAllocs(t *testing.T, name string, ceiling float64, fn func()) {
	t.Helper()
	got := testing.AllocsPerRun(20, fn)
	t.Logf("%s: %.0f allocs/op (ceiling %.0f)", name, got, ceiling)
	if got > ceiling {
		t.Errorf("%s: %.0f allocs/op, over the ceiling of %.0f", name, got, ceiling)
	}
}

func mustRows(t *testing.T, rows *engine.Rows, err error, want int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != want {
		t.Fatalf("got %d rows, want %d", len(rows.Data), want)
	}
}

func TestAllocBudget(t *testing.T) {
	p := allocPipeline(t)
	ctx := context.Background()
	const point = "SELECT * FROM e_author WHERE id = 7"
	const path = "/book/author/name/lastname"

	checkAllocs(t, "point SQL", 103, func() {
		rows, err := p.SQL(point)
		mustRows(t, rows, err, 1)
	})
	checkAllocs(t, "drained point SQLCursor", 103, func() {
		cur, err := p.SQLCursor(ctx, point)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := engine.DrainCursor(cur)
		mustRows(t, rows, err, 1)
	})
	wantPath := 0
	if rows, err := p.Query(path); err == nil {
		wantPath = len(rows.Data)
	}
	checkAllocs(t, "Query "+path, 5224, func() {
		rows, err := p.Query(path)
		mustRows(t, rows, err, wantPath)
	})
	checkAllocs(t, "LoadXML(BookXML)", 323, func() {
		if _, err := p.LoadXML(paper.BookXML, "book"); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocs(t, "Reconstruct", 219, func() {
		if _, err := p.Reconstruct(1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetServedPath measures one untraced /path request that
// returns one row, served in process through the HTTP handler.
func TestAllocBudgetServedPath(t *testing.T) {
	p := allocPipeline(t)
	h := serve.New(p, serve.Options{TraceSample: -1}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/path?q=/editor[@name='Knuth%2011']/book/booktitle", nil)
	checkAllocs(t, "served /path row", 1156, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if !bytes.HasSuffix(w.Body.Bytes(), []byte(`"n":1}`+"\n")) {
			t.Fatalf("want one row, got %s", w.Body)
		}
	})
}
