package engine_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"xmlrdb/internal/baselines"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/wgen"
	"xmlrdb/internal/xmltree"
)

// e9Queries is the E9 matrix: the per-query-class join-count queries
// over the paper DTD that EXPERIMENTS.md reports per mapping.
var e9Queries = []string{
	"/book",
	"/book/booktitle/text()",
	"/book/author",
	"/article/author/name",
	"/article/author[@id='wlee']",
	"/article/contactauthor[@authorid]",
	"//author",
	"/editor//editor",
}

// sortedRowSet renders every result row as JSON and sorts the
// renderings: join reordering and build-side swaps may change emission
// order, but the row multiset must be byte-identical.
func sortedRowSet(t *testing.T, sql string, rows *engine.Rows, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// checkArms loads docs under every mapping of d and, for every arm of
// every query's translation, compares the planner's join order with the
// written order: once without statistics, once after ANALYZE.
func checkArms(t *testing.T, label string, d *dtd.DTD, docs []*xmltree.Document, queries []string) {
	t.Helper()
	maps, err := baselines.All(d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, m := range maps {
		db := engine.Open()
		if err := db.CreateSchema(m.Schema()); err != nil {
			t.Fatalf("%s %s: %v", label, m.Name(), err)
		}
		for di, doc := range docs {
			if _, err := m.Load(db, doc, fmt.Sprintf("d%d", di)); err != nil {
				t.Fatalf("%s %s doc %d: %v", label, m.Name(), di, err)
			}
		}
		var arms []string
		for _, qs := range queries {
			trans, err := m.Translator().Translate(pathquery.MustParse(qs))
			if err != nil {
				continue // mapping cannot address this query class
			}
			arms = append(arms, trans.SQLs...)
		}
		for _, phase := range []string{"no stats", "with stats"} {
			if phase == "with stats" {
				if err := db.Analyze(); err != nil {
					t.Fatalf("%s %s: analyze: %v", label, m.Name(), err)
				}
			}
			for _, sql := range arms {
				rows, err := engine.QueryWrittenOrder(db, sql)
				want := sortedRowSet(t, sql, rows, err)
				rows, err = drainQuery(db, sql)
				got := sortedRowSet(t, sql, rows, err)
				if len(got) != len(want) {
					t.Errorf("%s %s [%s] %q: %d rows, written order %d",
						label, m.Name(), phase, sql, len(got), len(want))
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s %s [%s] %q: row %d = %s, written order %s",
							label, m.Name(), phase, sql, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestCBOEquivalenceE9Matrix checks the planner's join order against
// the written order across the whole E9 matrix: every mapping × every
// query class, every union arm, with and without statistics.
func TestCBOEquivalenceE9Matrix(t *testing.T) {
	d := dtd.MustParse(paper.Example1DTD)
	docs, err := wgen.Corpus(d, 30, 7, wgen.DocConfig{MaxRepeat: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkArms(t, "e9", d, docs, e9Queries)
}

// TestCBOEquivalenceGeneratedWorkloads widens the battery beyond the
// paper DTD: generated DTDs, corpora and path queries, same contract.
func TestCBOEquivalenceGeneratedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("generated equivalence battery is heavyweight")
	}
	for seed := int64(1); seed <= 3; seed++ {
		d := wgen.GenerateDTD(wgen.DTDConfig{
			Elements: 14, Seed: seed, Levels: 4, AttrsPerElement: 2,
			IDProb: 0.3, OptionalProb: 0.3, RepeatProb: 0.4, ChoiceProb: 0.4,
		})
		docs, err := wgen.Corpus(d, 12, seed*31, wgen.DocConfig{MaxRepeat: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		queries := wgen.GenerateQueries(d, 10, seed*97, wgen.QueryConfig{Depth: 3, PredProb: 0.3})
		checkArms(t, fmt.Sprintf("seed %d", seed), d, docs, queries)
	}
}

// drainQuery runs sql through the production read path and drains it.
func drainQuery(db *engine.DB, sql string) (*engine.Rows, error) {
	cur, err := db.QueryCursorContext(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return engine.DrainCursor(cur)
}
