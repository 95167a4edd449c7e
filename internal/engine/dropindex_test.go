package engine

import (
	"errors"
	"strings"
	"testing"

	"xmlrdb/internal/faultfs"
	"xmlrdb/internal/rel"
)

// TestDropIndexRefusesConstraintIndexes is the regression test for the
// DropIndex hole: the auto-created <table>_pk and <table>_uN indexes
// enforce uniqueness on insert, so dropping one silently disabled the
// primary-key check. The drop must fail and the duplicate insert after
// the attempted drop must still be rejected.
func TestDropIndexRefusesConstraintIndexes(t *testing.T) {
	db := testDB(t)
	for _, name := range []string{"authors_pk", "books_pk"} {
		if err := db.DropIndex(name); err == nil {
			t.Fatalf("DropIndex(%q) succeeded on a constraint-backed index", name)
		} else if errors.Is(err, ErrNoIndex) {
			t.Fatalf("DropIndex(%q) = %v, want a constraint refusal, not not-found", name, err)
		}
		// The statement path must refuse too — with and without IF EXISTS
		// (the index exists; the drop is forbidden, not missing).
		if _, _, err := execSQL(db, "DROP INDEX "+name); err == nil {
			t.Fatalf("DROP INDEX %s succeeded on a constraint-backed index", name)
		}
		if _, _, err := execSQL(db, "DROP INDEX IF EXISTS "+name); err == nil {
			t.Fatalf("DROP INDEX IF EXISTS %s swallowed a constraint refusal", name)
		}
	}
	// The constraint must still hold after the attempted drops.
	if _, err := db.Insert("authors", []any{int64(1), "Duplicate Smith", int64(99)}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("duplicate PK insert after attempted drop: err = %v, want ErrConstraint", err)
	}
}

// TestDropIndexRefusesUniqueConstraintIndexes covers the <table>_uN
// indexes created for UNIQUE constraints.
func TestDropIndexRefusesUniqueConstraintIndexes(t *testing.T) {
	db := Open()
	def := &rel.Table{
		Name: "users",
		Columns: []rel.Column{
			{Name: "id", Type: rel.TypeInt},
			{Name: "email", Type: rel.TypeText},
		},
		PrimaryKey: []string{"id"},
		Uniques:    [][]string{{"email"}},
	}
	if err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("users", []any{int64(1), "a@example.com"}); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("users_u0"); err == nil {
		t.Fatal("DropIndex(users_u0) succeeded on a unique-constraint index")
	}
	if _, err := db.Insert("users", []any{int64(2), "a@example.com"}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("duplicate unique insert after attempted drop: err = %v, want ErrConstraint", err)
	}
}

// TestDropIndexNotFoundSentinel pins the ErrNoIndex sentinel on both
// index namespaces so callers can distinguish not-found from a failed
// or refused drop.
func TestDropIndexNotFoundSentinel(t *testing.T) {
	db := testDB(t)
	if err := db.DropIndex("nope"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("DropIndex(nope) = %v, want ErrNoIndex", err)
	}
	if err := db.DropOrderedIndex("nope"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("DropOrderedIndex(nope) = %v, want ErrNoIndex", err)
	}
	if _, _, err := execSQL(db, "DROP INDEX IF EXISTS nope"); err != nil {
		t.Errorf("DROP INDEX IF EXISTS nope = %v, want nil", err)
	}
	if _, _, err := execSQL(db, "DROP INDEX nope"); !errors.Is(err, ErrNoIndex) {
		t.Errorf("DROP INDEX nope = %v, want ErrNoIndex", err)
	}
}

// TestDropIndexIfExistsSurfacesWALFailure is the regression test for
// the IF EXISTS error swallowing: a DROP INDEX whose WAL append fails
// must report the failure — the index lives on, and claiming success
// would let the caller believe the DDL is durable.
func TestDropIndexIfExistsSurfacesWALFailure(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("store", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := execScript(db, `
CREATE TABLE pts (id INTEGER PRIMARY KEY, x INTEGER);
CREATE INDEX pts_x ON pts (x);
INSERT INTO pts VALUES (1, 10), (2, 20);
`); err != nil {
		t.Fatal(err)
	}
	fs.SetWriteBudget(0) // next WAL append tears and crashes the disk
	_, _, err = execSQL(db, "DROP INDEX IF EXISTS pts_x")
	if err == nil {
		t.Fatal("DROP INDEX IF EXISTS reported success while the WAL append failed")
	}
	if errors.Is(err, ErrNoIndex) {
		t.Fatalf("WAL failure reported as not-found: %v", err)
	}
	// The index must still exist: the drop did not commit.
	db.mu.RLock()
	_, ok := db.tables["pts"].indexes["pts_x"]
	db.mu.RUnlock()
	if !ok {
		t.Fatal("index pts_x was deleted although its drop failed to log")
	}
}

// TestDropOrderedIndexFallbackPreservesError checks that the ordered
// fallback runs only on not-found: a hash index whose drop fails for a
// real reason must not be masked by "no such ordered index".
func TestDropOrderedIndexFallbackPreservesError(t *testing.T) {
	db := testDB(t)
	err := func() error {
		_, _, err := execSQL(db, "DROP INDEX authors_pk")
		return err
	}()
	if err == nil {
		t.Fatal("DROP INDEX authors_pk succeeded")
	}
	if strings.Contains(err.Error(), "ordered") {
		t.Fatalf("constraint refusal was masked by the ordered-index fallback: %v", err)
	}
}

// TestConstraintIndexSurvivesRecovery checks that the undroppable
// origin of pk/unique indexes is preserved across snapshot+WAL
// recovery: a recovered store must refuse the same drops.
func TestConstraintIndexSurvivesRecovery(t *testing.T) {
	fs := faultfs.NewMem()
	db, err := OpenAtOpts("store", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := execScript(db, `
CREATE TABLE pts (id INTEGER PRIMARY KEY, x INTEGER);
INSERT INTO pts VALUES (1, 10);
`); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // pk index now lives in the snapshot
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := OpenAtOpts("store", DurabilityOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := rdb.DropIndex("pts_pk"); err == nil || errors.Is(err, ErrNoIndex) {
		t.Fatalf("recovered store: DropIndex(pts_pk) = %v, want a constraint refusal", err)
	}
	if _, err := rdb.Insert("pts", []any{int64(1), int64(99)}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("recovered store accepted a duplicate PK: %v", err)
	}
}
