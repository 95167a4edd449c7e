package pathquery

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
)

// TestRunCursorMatchesArms checks the streaming union produces exactly
// the rows of its arms run one by one as separate statements, in arm
// order.
func TestRunCursorMatchesArms(t *testing.T) {
	tr, db := loadedStore(t, ermap.StrategyJunction)
	ctx := context.Background()
	for _, path := range []string{
		"/book/booktitle/text()",
		"/book/author",
		"//author/name",
		"/book/author[@id='a1']",
	} {
		trans, err := tr.Translate(MustParse(path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want := &engine.Rows{Cols: trans.Cols}
		for _, sql := range trans.SQLs {
			arm, err := db.QueryCursorContext(ctx, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			rows, err := engine.DrainCursor(arm)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want.Data = append(want.Data, rows.Data...)
		}
		cur, err := RunCursor(ctx, db, tr, path)
		if err != nil {
			t.Fatalf("%s: RunCursor: %v", path, err)
		}
		got, err := engine.DrainCursor(cur)
		if err != nil {
			t.Fatalf("%s: drain: %v", path, err)
		}
		if !reflect.DeepEqual(got.Data, want.Data) || !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Errorf("%s: cursor result %v %v, want %v %v", path, got.Cols, got.Data, want.Cols, want.Data)
		}
	}
}

// TestUnionCursorEarlyClose abandons a union cursor after one row and
// checks the engine's read locks are released: a write must succeed.
func TestUnionCursorEarlyClose(t *testing.T) {
	tr, db := loadedStore(t, ermap.StrategyJunction)
	cur, err := RunCursor(context.Background(), db, tr, "/book/author")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if cur.Next() {
		t.Fatal("Next after Close returned a row")
	}
	if _, err := db.ExecCursorContext(context.Background(), `DELETE FROM e_author WHERE 1 = 0`); err != nil {
		t.Fatalf("write after cursor Close: %v", err)
	}
}

// TestExplainContextIncludesPhysicalPlans checks the executed EXPLAIN
// report keeps the translation explain as its prefix and appends one
// physical-plan section per union arm, rendered from the operator tree
// that actually ran.
func TestExplainContextIncludesPhysicalPlans(t *testing.T) {
	tr, db := loadedStore(t, ermap.StrategyJunction)
	trans, err := tr.Translate(MustParse("/book/author/name"))
	if err != nil {
		t.Fatal(err)
	}
	report, err := ExplainContext(context.Background(), db, trans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(report, trans.Explain()) {
		t.Errorf("report does not start with the translation explain:\n%s", report)
	}
	if n := strings.Count(report, "-- physical plan (arm "); n != len(trans.SQLs) {
		t.Errorf("report has %d physical plan sections, want %d:\n%s", n, len(trans.SQLs), report)
	}
	for _, op := range []string{"Scan(", "Project(", "rows=", "est="} {
		if !strings.Contains(report, op) {
			t.Errorf("report lacks %q:\n%s", op, report)
		}
	}
}
