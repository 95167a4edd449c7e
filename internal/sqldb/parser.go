package sqldb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"xmlrdb/internal/rel"
)

// Parse parses one SQL statement (a trailing semicolon is permitted).
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after statement", p.cur().Text)
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for {
		for p.accept(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(";") && !p.atEOF() {
			return nil, p.errf("expected ';' between statements, found %q", p.cur().Text)
		}
	}
}

type parser struct {
	toks []Token
	i    int
	// depth counts the recursive expression constructs open around the
	// current token; h is the height of the last expression parsed.
	depth, h int
}

func (p *parser) cur() Token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at byte %d: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// acceptKw consumes an identifier token matching the keyword
// (case-insensitive).
func (p *parser) acceptKw(kw string) bool {
	t := p.cur()
	if t.Kind == TokIdent && strings.EqualFold(t.Text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().Text)
	}
	return nil
}

// accept consumes an operator token with the given text.
func (p *parser) accept(op string) bool {
	t := p.cur()
	if t.Kind == TokOp && t.Text == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(op string) error {
	if !p.accept(op) {
		return p.errf("expected %q, found %q", op, p.cur().Text)
	}
	return nil
}

// acceptOp consumes the operator token at the cursor when it is one of
// ops, returning it ("" when it is none of them).
func (p *parser) acceptOp(ops ...string) string {
	for _, op := range ops {
		if p.accept(op) {
			return op
		}
	}
	return ""
}

// peekKw reports whether the current token is the keyword.
func (p *parser) peekKw(kw string) bool {
	t := p.cur()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", t.Text)
	}
	p.i++
	return t.Text, nil
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.peekKw("SELECT"):
		return p.selectStmt()
	case p.peekKw("INSERT"):
		return p.insertStmt()
	case p.peekKw("CREATE"):
		return p.createStmt()
	case p.peekKw("DROP"):
		return p.dropStmt()
	case p.peekKw("UPDATE"):
		return p.updateStmt()
	case p.peekKw("DELETE"):
		return p.deleteStmt()
	default:
		return nil, p.errf("expected a statement, found %q", p.cur().Text)
	}
}

func (p *parser) selectStmt() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	sel.Distinct = p.acceptKw("DISTINCT")
	// Projection list.
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	sel.From = append(sel.From, ref)
	for {
		switch {
		case p.accept(","):
			ref, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
		case p.peekKw("JOIN") || p.peekKw("INNER") || p.peekKw("LEFT"):
			left := false
			if p.acceptKw("LEFT") {
				left = true
				p.acceptKw("OUTER")
			} else {
				p.acceptKw("INNER")
			}
			if err := p.expectKw("JOIN"); err != nil {
				return nil, err
			}
			ref, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, Join{Ref: ref, On: on, Left: left})
		default:
			goto afterFrom
		}
	}
afterFrom:
	if p.acceptKw("WHERE") {
		if sel.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		if sel.Having, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		if p.acceptKw("OFFSET") {
			if sel.Offset, err = p.intLit(); err != nil {
				return nil, err
			}
		}
	}
	return sel, nil
}

func (p *parser) intLit() (int, error) {
	t := p.cur()
	if t.Kind != TokNumber {
		return 0, p.errf("expected a number, found %q", t.Text)
	}
	p.i++
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("invalid integer %q", t.Text)
	}
	return n, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept("*") {
		return SelectItem{Star: true}, nil
	}
	// "t.*"
	if p.cur().Kind == TokIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].Kind == TokOp && p.toks[p.i+1].Text == "." &&
		p.toks[p.i+2].Kind == TokOp && p.toks[p.i+2].Text == "*" {
		table := p.cur().Text
		p.i += 3
		return SelectItem{Star: true, Table: table}, nil
	}
	e, err := p.expr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		if item.Alias, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	} else if p.cur().Kind == TokIdent && !p.peekAnyKw() {
		// bare alias
		item.Alias, _ = p.ident()
	}
	return item, nil
}

// peekAnyKw reports whether the current identifier is a reserved clause
// keyword (so it cannot be a bare alias).
func (p *parser) peekAnyKw() bool {
	for _, kw := range []string{"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
		"JOIN", "INNER", "LEFT", "ON", "AS", "AND", "OR", "NOT", "ASC", "DESC", "OFFSET",
		"SET", "VALUES"} {
		if p.peekKw(kw) {
			return true
		}
	}
	return false
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKw("AS") {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if p.cur().Kind == TokIdent && !p.peekAnyKw() {
		ref.Alias, _ = p.ident()
	}
	return ref, nil
}

func (p *parser) insertStmt() (*Insert, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(",") {
			return ins, nil
		}
	}
}

func (p *parser) createStmt() (Stmt, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKw("UNIQUE")
	ordered := p.acceptKw("ORDERED")
	switch {
	case p.acceptKw("TABLE"):
		if unique || ordered {
			return nil, p.errf("UNIQUE/ORDERED apply to indexes, not tables")
		}
		return p.createTableTail()
	case p.acceptKw("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique, Ordered: ordered}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) createTableTail() (*CreateTable, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	def := &rel.Table{Name: name}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekKw("PRIMARY"):
			p.acceptKw("PRIMARY")
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenNames()
			if err != nil {
				return nil, err
			}
			def.PrimaryKey = cols
		case p.peekKw("UNIQUE"):
			p.acceptKw("UNIQUE")
			cols, err := p.parenNames()
			if err != nil {
				return nil, err
			}
			def.Uniques = append(def.Uniques, cols)
		case p.peekKw("FOREIGN"):
			p.acceptKw("FOREIGN")
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenNames()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("REFERENCES"); err != nil {
				return nil, err
			}
			refTable, err := p.ident()
			if err != nil {
				return nil, err
			}
			refCols, err := p.parenNames()
			if err != nil {
				return nil, err
			}
			def.ForeignKeys = append(def.ForeignKeys, rel.ForeignKey{
				Columns: cols, RefTable: refTable, RefColumns: refCols,
			})
		default:
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			typeKw, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, ok := rel.TypeFromKeyword(typeKw)
			if !ok {
				return nil, p.errf("unknown column type %q", typeKw)
			}
			col := rel.Column{Name: colName, Type: typ}
			for {
				switch {
				case p.acceptKw("NOT"):
					if err := p.expectKw("NULL"); err != nil {
						return nil, err
					}
					col.NotNull = true
				case p.acceptKw("PRIMARY"):
					if err := p.expectKw("KEY"); err != nil {
						return nil, err
					}
					def.PrimaryKey = []string{colName}
				default:
					goto colDone
				}
			}
		colDone:
			def.Columns = append(def.Columns, col)
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Def: def}, nil
}

func (p *parser) parenNames() ([]string, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *parser) dropStmt() (Stmt, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw("TABLE"):
		ifExists, err := p.ifExists()
		if err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Table: name, IfExists: ifExists}, nil
	case p.acceptKw("INDEX"):
		ifExists, err := p.ifExists()
		if err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, IfExists: ifExists}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
}

func (p *parser) ifExists() (bool, error) {
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *parser) updateStmt() (*Update, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if !p.accept(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		if up.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *parser) deleteStmt() (*Delete, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKw("WHERE") {
		if del.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

// Expression grammar, lowest to highest precedence:
// OR, AND, NOT, comparison/IS/IN/LIKE, + -, * / %, unary -, primary.
//
// Every expression function leaves the height of the tree it returned
// in p.h, and the constructs it recurses through are counted in
// p.depth, so nesting past maxExprDepth fails before it costs stack
// here or in the binder, planner and evaluator that walk the tree.

// maxExprDepth bounds the height of an expression tree. Parentheses,
// NOT, unary minus, function calls, IN lists and each link of a binary
// operator chain count one level each; a lone literal or column is one.
const maxExprDepth = 1000

// ErrTooDeep reports an expression nested past the parser's limit.
var ErrTooDeep = errors.New("sql: expression nested too deeply")

func (p *parser) tooDeep() error {
	return fmt.Errorf("sql: at byte %d: %w (limit %d levels)", p.cur().Pos, ErrTooDeep, maxExprDepth)
}

// nest enters one level of recursive syntax; the caller leaves it with
// p.depth-- once the nested expression is parsed.
func (p *parser) nest() error {
	p.depth++
	if p.depth >= maxExprDepth {
		return p.tooDeep()
	}
	return nil
}

// up records, in p.h, the height of a node whose tallest child is h.
func (p *parser) up(h int) error {
	p.h = h + 1
	if p.h > maxExprDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		lh := p.h
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: OpOr, L: l, R: r}
		if err := p.up(max(lh, p.h)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		lh := p.h
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: OpAnd, L: l, R: r}
		if err := p.up(max(lh, p.h)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.notExpr()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, p.up(p.h)
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	lh := p.h
	if op := p.acceptOp(OpEq, OpNe, "<>", OpLe, OpGe, OpLt, OpGt); op != "" {
		if op == "<>" {
			op = OpNe
		}
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: op, L: l, R: r}, p.up(max(lh, p.h))
	}
	switch {
	case p.peekKw("IS"):
		p.acceptKw("IS")
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, p.up(lh)
	case p.peekKw("NOT"), p.peekKw("IN"), p.peekKw("LIKE"):
		neg := p.acceptKw("NOT")
		switch {
		case p.acceptKw("IN"):
			if err := p.expect("("); err != nil {
				return nil, err
			}
			list, h, err := p.exprList()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &In{X: l, List: list, Negate: neg}, p.up(max(lh, h))
		case p.acceptKw("LIKE"):
			t := p.cur()
			if t.Kind != TokString {
				return nil, p.errf("LIKE requires a string literal pattern")
			}
			p.i++
			return &Like{X: l, Pattern: t.Text, Negate: neg}, p.up(lh)
		default:
			return nil, p.errf("expected IN or LIKE after NOT")
		}
	}
	return l, nil
}

// exprList parses a comma-separated list one level down (IN lists,
// call arguments) and returns the height of its tallest item.
func (p *parser) exprList() ([]Expr, int, error) {
	if err := p.nest(); err != nil {
		return nil, 0, err
	}
	defer func() { p.depth-- }()
	var list []Expr
	h := 0
	for {
		e, err := p.expr()
		if err != nil {
			return nil, 0, err
		}
		list = append(list, e)
		h = max(h, p.h)
		if !p.accept(",") {
			return list, h, nil
		}
	}
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for op := p.acceptOp(OpAdd, OpSub); op != ""; op = p.acceptOp(OpAdd, OpSub) {
		lh := p.h
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
		if err := p.up(max(lh, p.h)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for op := p.acceptOp(OpMul, OpDiv, OpMod); op != ""; op = p.acceptOp(OpMul, OpDiv, OpMod) {
		lh := p.h
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
		if err := p.up(max(lh, p.h)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept("-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.unaryExpr()
		p.depth--
		if err != nil {
			return nil, err
		}
		return &Bin{Op: OpSub, L: &Lit{Value: int64(0)}, R: x}, p.up(p.h)
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	p.h = 1
	switch t.Kind {
	case TokNumber:
		p.i++
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("invalid number %q", t.Text)
			}
			return &Lit{Value: f}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.Text)
		}
		return &Lit{Value: n}, nil
	case TokString:
		p.i++
		return &Lit{Value: t.Text}, nil
	case TokOp:
		if t.Text == "(" {
			p.i++
			if err := p.nest(); err != nil {
				return nil, err
			}
			e, err := p.expr()
			p.depth--
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, p.up(p.h)
		}
		return nil, p.errf("unexpected %q in expression", t.Text)
	case TokIdent:
		switch strings.ToUpper(t.Text) {
		case "NULL":
			p.i++
			return &Lit{Value: nil}, nil
		case "TRUE":
			p.i++
			return &Lit{Value: true}, nil
		case "FALSE":
			p.i++
			return &Lit{Value: false}, nil
		}
		name := t.Text
		p.i++
		// Function call?
		if p.accept("(") {
			call := &Call{Fn: strings.ToUpper(name)}
			if p.accept("*") {
				call.Star = true
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.accept(")") {
				return call, nil
			}
			call.Distinct = p.acceptKw("DISTINCT")
			args, h, err := p.exprList()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			call.Args = args
			return call, p.up(h)
		}
		// Qualified column?
		if p.accept(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &Col{Table: name, Name: col}, nil
		}
		return &Col{Name: name}, nil
	default:
		return nil, p.errf("unexpected end of expression")
	}
}
