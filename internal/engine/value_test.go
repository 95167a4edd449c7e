package engine

import (
	"testing"
	"testing/quick"

	"xmlrdb/internal/rel"
)

// TestCompareTotalOrder checks the comparator's order properties over
// random values: antisymmetry and transitivity within comparable types.
func TestCompareTotalOrder(t *testing.T) {
	antisym := func(a, b int64) bool {
		return compare(a, b) == -compare(b, a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	antisymStr := func(a, b string) bool {
		return compare(a, b) == -compare(b, a)
	}
	if err := quick.Check(antisymStr, nil); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c float64) bool {
		x, y, z := any(a), any(b), any(c)
		if compare(x, y) <= 0 && compare(y, z) <= 0 {
			return compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareCrossNumeric checks int/float comparisons agree with the
// mathematical order.
func TestCompareCrossNumeric(t *testing.T) {
	f := func(i int32, g float64) bool {
		a, b := any(int64(i)), any(g)
		switch {
		case float64(i) < g:
			return compare(a, b) < 0
		case float64(i) > g:
			return compare(a, b) > 0
		default:
			return compare(a, b) == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeKeyInjective checks that distinct rows of simple values get
// distinct keys (the property hash indexes and GROUP BY rely on).
func TestEncodeKeyInjective(t *testing.T) {
	f := func(a1, a2 int64, b1, b2 string) bool {
		k1 := encodeKey([]any{a1, b1})
		k2 := encodeKey([]any{a2, b2})
		if a1 == a2 && b1 == b2 {
			return k1 == k2
		}
		return k1 != k2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Type confusion must not collide: 1 vs "1" vs 1.0 vs true.
	keys := map[string]bool{}
	for _, v := range []any{int64(1), "1", float64(1), true, nil} {
		k := encodeKey([]any{v})
		if keys[k] {
			t.Errorf("key collision for %#v", v)
		}
		keys[k] = true
	}
	// Concatenation boundaries must not collide: ["ab","c"] vs ["a","bc"].
	if encodeKey([]any{"ab", "c"}) == encodeKey([]any{"a", "bc"}) {
		t.Error("boundary collision")
	}
}

// TestCoerceRoundTrip checks coercion into each type produces a value of
// the right dynamic type (or an error), never silently wrong.
func TestCoerceRoundTrip(t *testing.T) {
	cases := []struct {
		v    any
		typ  rel.Type
		want any
		ok   bool
	}{
		{int64(5), rel.TypeInt, int64(5), true},
		{5, rel.TypeInt, int64(5), true},
		{"42", rel.TypeInt, int64(42), true},
		{"x", rel.TypeInt, nil, false},
		{3.7, rel.TypeInt, int64(3), true},
		{true, rel.TypeInt, int64(1), true},
		{int64(5), rel.TypeFloat, float64(5), true},
		{"2.5", rel.TypeFloat, 2.5, true},
		{"x", rel.TypeFloat, nil, false},
		{int64(5), rel.TypeText, "5", true},
		{2.5, rel.TypeText, "2.5", true},
		{false, rel.TypeText, "false", true},
		{"true", rel.TypeBool, true, true},
		{int64(0), rel.TypeBool, false, true},
		{"zz", rel.TypeBool, nil, false},
		{nil, rel.TypeInt, nil, true},
	}
	for _, c := range cases {
		got, err := coerce(c.v, c.typ)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("coerce(%#v, %v) = %#v, %v; want %#v", c.v, c.typ, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("coerce(%#v, %v) should fail", c.v, c.typ)
		}
	}
}

// TestTruthy documents the predicate interpretation of values.
func TestTruthy(t *testing.T) {
	truthyVals := []any{true, int64(1), int64(-1), 0.5, "x"}
	falsyVals := []any{nil, false, int64(0), 0.0, ""}
	for _, v := range truthyVals {
		if !truthy(v) {
			t.Errorf("truthy(%#v) = false", v)
		}
	}
	for _, v := range falsyVals {
		if truthy(v) {
			t.Errorf("truthy(%#v) = true", v)
		}
	}
}

// TestNullsSortFirst verifies NULL ordering used by ORDER BY.
func TestNullsSortFirst(t *testing.T) {
	if compare(nil, int64(0)) != -1 || compare(int64(0), nil) != 1 || compare(nil, nil) != 0 {
		t.Error("NULL ordering wrong")
	}
}

// TestNUMFunction exercises the NUM cast end to end.
func TestNUMFunction(t *testing.T) {
	db := Open()
	err := execScript(db, `
CREATE TABLE t (v TEXT, f TEXT);
INSERT INTO t VALUES ('10', '2.5'), ('3', '0.5');
`)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustQuery(db, `SELECT SUM(NUM(v)), SUM(NUM(v) * NUM(f)) FROM t`)
	if rows.Data[0][0] != int64(13) {
		t.Errorf("SUM(NUM(v)) = %v", rows.Data[0][0])
	}
	if rows.Data[0][1] != 26.5 {
		t.Errorf("weighted sum = %v", rows.Data[0][1])
	}
	if _, err := querySQL(db, `SELECT NUM('abc') FROM t`); err == nil {
		t.Error("NUM of non-number should fail")
	}
	rows = mustQuery(db, `SELECT NUM(NULL) FROM t LIMIT 1`)
	if rows.Data[0][0] != nil {
		t.Errorf("NUM(NULL) = %v", rows.Data[0][0])
	}
}
