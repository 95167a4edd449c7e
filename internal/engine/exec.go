package engine

import (
	"fmt"

	"xmlrdb/internal/sqldb"
)

// SELECT execution is split Volcano-style: plan.go binds sources and
// builds the physical operator tree, operators.go streams rows through
// it one at a time, cursor.go exposes the pull loop (DrainCursor is the
// one materializer). This file keeps the helpers both
// halves share: predicate/projection analysis and group-context
// expression evaluation.

// source is one table binding participating in a SELECT. ver is the
// immutable snapshot captured at cursor open (version.go): planning
// consults the live table under the open-time locks, execution reads
// only ver.
type source struct {
	ref  sqldb.TableRef
	t    *table
	ver  *tableVersion
	on   sqldb.Expr // explicit JOIN condition (nil for FROM items)
	left bool       // LEFT OUTER join
}

// extractEqualities finds "col = literal" predicates on the source and
// returns the column positions, literal values, and the remaining
// predicates.
func extractEqualities(preds []sqldb.Expr, src source, env *rowEnv) ([]int, []any, []sqldb.Expr, error) {
	var cols []int
	var vals []any
	var rest []sqldb.Expr
	for _, p := range preds {
		b, ok := p.(*sqldb.Bin)
		if !ok || b.Op != sqldb.OpEq {
			rest = append(rest, p)
			continue
		}
		col, lit := asColLit(b.L, b.R)
		if col == nil {
			col, lit = asColLit(b.R, b.L)
		}
		if col == nil || (col.Table != "" && col.Table != src.ref.Name()) {
			rest = append(rest, p)
			continue
		}
		_, pos := src.t.def.Column(col.Name)
		if pos < 0 {
			rest = append(rest, p)
			continue
		}
		v, err := evalConst(lit)
		if err != nil {
			rest = append(rest, p)
			continue
		}
		cols = append(cols, pos)
		vals = append(vals, v)
	}
	// Only use the index when a single equality matches an index exactly,
	// or try multi-column in given order.
	return cols, vals, rest, nil
}

func asColLit(a, b sqldb.Expr) (*sqldb.Col, sqldb.Expr) {
	c, ok := a.(*sqldb.Col)
	if !ok {
		return nil, nil
	}
	if _, isLit := b.(*sqldb.Lit); !isLit {
		return nil, nil
	}
	return c, b
}

func anyNil(vals []any) bool {
	for _, v := range vals {
		if v == nil {
			return true
		}
	}
	return false
}

// orderKey computes one sort key: an output alias or column name wins;
// otherwise the expression is evaluated in the supplied context.
func orderKey(oi sqldb.OrderItem, items []sqldb.SelectItem, cols []string, vals []any, eval func(sqldb.Expr) (any, error)) (any, error) {
	if c, ok := oi.Expr.(*sqldb.Col); ok && c.Table == "" {
		for i, name := range cols {
			if name == c.Name {
				// Prefer an explicit alias match; plain column names also
				// resolve here, which matches SQL's output-column rule.
				if items[i].Alias == c.Name || name == c.Name {
					return vals[i], nil
				}
			}
		}
	}
	// Positional ORDER BY n.
	if l, ok := oi.Expr.(*sqldb.Lit); ok {
		if n, isInt := l.Value.(int64); isInt && n >= 1 && int(n) <= len(vals) {
			return vals[n-1], nil
		}
	}
	return eval(oi.Expr)
}

// expandItems resolves the projection list: stars expand to their
// binding's columns; outputs get names.
func expandItems(s *sqldb.Select, env *rowEnv) ([]sqldb.SelectItem, []string, error) {
	var items []sqldb.SelectItem
	var cols []string
	for _, it := range s.Items {
		if !it.Star {
			items = append(items, it)
			name := it.Alias
			if name == "" {
				if c, ok := it.Expr.(*sqldb.Col); ok {
					name = c.Name
				} else {
					name = fmt.Sprintf("col%d", len(cols)+1)
				}
			}
			cols = append(cols, name)
			continue
		}
		for _, b := range env.bindings {
			if it.Table != "" && b.name != it.Table {
				continue
			}
			for _, c := range b.cols {
				items = append(items, sqldb.SelectItem{Expr: &sqldb.Col{Table: b.name, Name: c}})
				cols = append(cols, c)
			}
		}
	}
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("engine: empty projection")
	}
	return items, cols, nil
}

// aggEnv evaluates expressions in group context: aggregates fold over
// the group's rows; other column references bind to the group's first
// row.
type aggEnv struct {
	env  *rowEnv
	rows [][]any
}

func (g *aggEnv) eval(e sqldb.Expr) (any, error) {
	switch x := e.(type) {
	case *sqldb.Call:
		if x.IsAggregate() {
			return g.aggregate(x)
		}
	case *sqldb.Bin:
		l, err := g.eval(x.L)
		if err != nil {
			return nil, err
		}
		r, err := g.eval(x.R)
		if err != nil {
			return nil, err
		}
		return evalBin(&sqldb.Bin{Op: x.Op, L: &sqldb.Lit{Value: l}, R: &sqldb.Lit{Value: r}}, g.env)
	case *sqldb.Not:
		v, err := g.eval(x.X)
		if err != nil {
			return nil, err
		}
		return !truthy(v), nil
	case *sqldb.IsNull:
		v, err := g.eval(x.X)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Negate, nil
	case *sqldb.In:
		v, err := g.eval(x.X)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return false, nil
		}
		for _, cand := range x.List {
			cv, err := g.eval(cand)
			if err != nil {
				return nil, err
			}
			if equalVals(v, cv) {
				return !x.Negate, nil
			}
		}
		return x.Negate, nil
	case *sqldb.Like:
		v, err := g.eval(x.X)
		if err != nil {
			return nil, err
		}
		s, ok := v.(string)
		if !ok {
			return false, nil
		}
		return likeMatch(s, x.Pattern) != x.Negate, nil
	}
	// Non-aggregate leaf: evaluate against the first row of the group.
	if len(g.rows) > 0 {
		g.env.row = g.rows[0]
	} else {
		g.env.row = make([]any, g.env.width())
	}
	return evalExpr(e, g.env)
}

func (g *aggEnv) aggregate(c *sqldb.Call) (any, error) {
	if c.Star {
		if c.Fn != "COUNT" {
			return nil, fmt.Errorf("engine: %s(*) is not valid", c.Fn)
		}
		return int64(len(g.rows)), nil
	}
	if len(c.Args) != 1 {
		return nil, fmt.Errorf("engine: %s takes one argument", c.Fn)
	}
	var vals []any
	seen := make(map[string]bool)
	for _, row := range g.rows {
		g.env.row = row
		v, err := evalExpr(c.Args[0], g.env)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if c.Distinct {
			k := encodeKey([]any{v})
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch c.Fn {
	case "COUNT":
		return int64(len(vals)), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cp := compare(v, best)
			if (c.Fn == "MIN" && cp < 0) || (c.Fn == "MAX" && cp > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return nil, nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			if i, ok := v.(int64); ok {
				isum += i
				fsum += float64(i)
				continue
			}
			allInt = false
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("engine: %s over non-numeric value %T", c.Fn, v)
			}
			fsum += f
		}
		if c.Fn == "SUM" {
			if allInt {
				return isum, nil
			}
			return fsum, nil
		}
		return fsum / float64(len(vals)), nil
	default:
		return nil, fmt.Errorf("engine: unknown aggregate %s", c.Fn)
	}
}
