package engine

import (
	"errors"
	"testing"
)

func TestDropTableRefusesFKReferenced(t *testing.T) {
	db := testDB(t) // books has a foreign key into authors
	err := db.DropTable("authors")
	var dep *DependencyError
	if !errors.As(err, &dep) {
		t.Fatalf("DropTable(authors) = %v, want *DependencyError", err)
	}
	if dep.Table != "authors" || len(dep.ReferencedBy) != 1 || dep.ReferencedBy[0] != "books" {
		t.Errorf("DependencyError = %+v, want authors referenced by [books]", dep)
	}
	if db.TableDef("authors") == nil {
		t.Fatal("refused drop still removed the table")
	}
	// Dropping the referencing table first unblocks the parent.
	if err := db.DropTable("books"); err != nil {
		t.Fatalf("DropTable(books): %v", err)
	}
	if err := db.DropTable("authors"); err != nil {
		t.Fatalf("DropTable(authors) after books gone: %v", err)
	}
}

// WAL replay runs with FK enforcement off (the log already holds only
// committed, checked operations), and a replayed DROP TABLE must not be
// refused for the references it will drop later.
func TestDropTableAllowedWithEnforcementOff(t *testing.T) {
	db := testDB(t)
	db.enforceFK = false
	if err := db.DropTable("authors"); err != nil {
		t.Fatalf("DropTable with enforcement off: %v", err)
	}
}

func TestDropTableSelfReferenceAllowed(t *testing.T) {
	db := Open()
	if _, _, err := execSQL(db, `CREATE TABLE nodes (id INTEGER PRIMARY KEY, parent INTEGER,
  FOREIGN KEY (parent) REFERENCES nodes (id))`); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("nodes"); err != nil {
		t.Fatalf("DropTable on self-referencing table: %v", err)
	}
}
