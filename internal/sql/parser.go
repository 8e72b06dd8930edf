package sql

import (
	"fmt"
	"strconv"
	"strings"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
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
		return nil, fmt.Errorf("sql: unexpected %s after statement", p.peek())
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for !p.atEOF() {
		if p.accept(";") {
			continue
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(";") && !p.atEOF() {
			return nil, fmt.Errorf("sql: expected ';' before %s", p.peek())
		}
	}
	return out, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// accept consumes the next token if it matches text (symbols exactly,
// identifiers case-insensitively).
func (p *parser) accept(text string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == text {
		p.i++
		return true
	}
	if t.kind == tokIdent && strings.EqualFold(t.text, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("sql: expected %q, found %s", text, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %s", t)
	}
	p.i++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.accept("create"):
		return p.create()
	case p.accept("insert"):
		return p.insert()
	case p.accept("drop"):
		return p.drop()
	case p.accept("select"):
		return p.selectStmt()
	case p.accept("show"):
		return p.show()
	case p.accept("subscribe"):
		return p.subscribe()
	default:
		return nil, fmt.Errorf("sql: expected statement, found %s", p.peek())
	}
}

// show parses "SHOW STATS [LIKE 'prefix']".
func (p *parser) show() (Statement, error) {
	if err := p.expect("stats"); err != nil {
		return nil, err
	}
	st := &ShowStats{}
	if p.accept("like") {
		t := p.peek()
		if t.kind != tokString {
			return nil, fmt.Errorf("sql: SHOW STATS LIKE expects a string, found %s", t)
		}
		p.i++
		st.Like = t.text
	}
	return st, nil
}

// ------------------------------------------------------------------ DDL

func (p *parser) create() (Statement, error) {
	isStream := p.accept("stream")
	if !isStream {
		if err := p.expect("table"); err != nil {
			return nil, err
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var cols []tuple.Column
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.ident()
		if err != nil {
			return nil, err
		}
		kind, err := tuple.ParseKind(strings.ToLower(tname))
		if err != nil {
			return nil, fmt.Errorf("sql: column %s: %w", cname, err)
		}
		cols = append(cols, tuple.Column{Name: cname, Kind: kind})
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if isStream {
		archived := p.accept("archived")
		with, err := p.streamWith()
		if err != nil {
			return nil, err
		}
		return &CreateStream{Name: name, Cols: cols, Archived: archived, With: with}, nil
	}
	return &CreateTable{Name: name, Cols: cols}, nil
}

// streamWith parses the optional "WITH (key = value, ...)" options of
// CREATE STREAM. Keys: overflow (policy name), rate (sample admit
// probability), timeout_ms (block wait bound).
func (p *parser) streamWith() (*StreamWith, error) {
	if !p.accept("with") {
		return nil, nil
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	w := &StreamWith{}
	for {
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		switch strings.ToLower(key) {
		case "overflow":
			t := p.peek()
			if t.kind != tokString && t.kind != tokIdent {
				return nil, fmt.Errorf("sql: overflow wants a policy name, found %s", t)
			}
			p.i++
			if _, err := fjord.ParseOverflowPolicy(t.text); err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			w.Overflow = t.text
		case "rate":
			t := p.peek()
			if t.kind != tokNumber {
				return nil, fmt.Errorf("sql: rate wants a number, found %s", t)
			}
			p.i++
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("sql: rate wants a probability in [0,1], got %q", t.text)
			}
			w.SampleP = f
		case "timeout_ms":
			n, err := p.signedInt()
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, fmt.Errorf("sql: timeout_ms must be non-negative, got %d", n)
			}
			w.TimeoutMs = n
		default:
			return nil, fmt.Errorf("sql: unknown stream option %q (want overflow, rate, or timeout_ms)", key)
		}
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *parser) insert() (Statement, error) {
	if err := p.expect("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("values"); err != nil {
		return nil, err
	}
	var rows [][]tuple.Value
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []tuple.Value
		for {
			v, err := p.literalValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.accept(",") {
			continue
		}
		break
	}
	return &Insert{Table: name, Rows: rows}, nil
}

func (p *parser) literalValue() (tuple.Value, error) {
	neg := false
	if p.peek().kind == tokSymbol && p.peek().text == "-" {
		p.i++
		neg = true
	}
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.i++
		v, err := parseNumber(t.text)
		if err != nil {
			return tuple.Null(), err
		}
		if neg {
			if v.K == tuple.KindInt {
				v = tuple.Int(-v.I)
			} else {
				v = tuple.Float(-v.F)
			}
		}
		return v, nil
	case t.kind == tokString:
		p.i++
		return tuple.String(t.text), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "true"):
		p.i++
		return tuple.Bool(true), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "false"):
		p.i++
		return tuple.Bool(false), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "null"):
		p.i++
		return tuple.Null(), nil
	}
	return tuple.Null(), fmt.Errorf("sql: expected literal, found %s", t)
}

func parseNumber(text string) (tuple.Value, error) {
	if strings.ContainsRune(text, '.') {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return tuple.Null(), fmt.Errorf("sql: bad number %q", text)
		}
		return tuple.Float(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return tuple.Null(), fmt.Errorf("sql: bad number %q", text)
	}
	return tuple.Int(i), nil
}

func (p *parser) drop() (Statement, error) {
	if !p.accept("stream") && !p.accept("table") {
		return nil, fmt.Errorf("sql: expected STREAM or TABLE after DROP")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropSource{Name: name}, nil
}

// --------------------------------------------------------------- SELECT

var reservedAfterExpr = map[string]bool{
	"from": true, "where": true, "group": true, "order": true,
	"limit": true, "for": true, "as": true, "and": true, "or": true,
	"not": true, "asc": true, "desc": true, "by": true, "with": true,
}

// subscribe parses "SUBSCRIBE <query-id> [WITH (...)]" and
// "SUBSCRIBE SELECT ... [WITH (...)]".
func (p *parser) subscribe() (Statement, error) {
	st := &Subscribe{}
	if p.accept("select") {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		st.Sel = sel.(*Select)
	} else {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: SUBSCRIBE wants a query id or SELECT, found %s", t)
		}
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad query id %q", t.text)
		}
		st.Query = n
	}
	w, err := p.subscribeWith()
	if err != nil {
		return nil, err
	}
	st.With = w
	return st, nil
}

// subscribeWith parses the optional "WITH (key = value, ...)" options
// of SUBSCRIBE. Keys: overflow (policy name), rate (sample admit
// probability), timeout_ms (block wait bound), cohort (shared-cursor
// name), queue (frame ring capacity), replay (true/false).
func (p *parser) subscribeWith() (*SubscribeWith, error) {
	if !p.accept("with") {
		return nil, nil
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	w := &SubscribeWith{}
	for {
		key, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		switch strings.ToLower(key) {
		case "overflow":
			t := p.peek()
			if t.kind != tokString && t.kind != tokIdent {
				return nil, fmt.Errorf("sql: overflow wants a policy name, found %s", t)
			}
			p.i++
			if _, err := fjord.ParseOverflowPolicy(t.text); err != nil {
				return nil, fmt.Errorf("sql: %w", err)
			}
			w.Overflow = t.text
		case "rate":
			t := p.peek()
			if t.kind != tokNumber {
				return nil, fmt.Errorf("sql: rate wants a number, found %s", t)
			}
			p.i++
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil || f < 0 || f > 1 {
				return nil, fmt.Errorf("sql: rate wants a probability in [0,1], got %q", t.text)
			}
			w.SampleP = f
		case "timeout_ms":
			n, err := p.signedInt()
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, fmt.Errorf("sql: timeout_ms must be non-negative, got %d", n)
			}
			w.TimeoutMs = n
		case "cohort":
			t := p.peek()
			if t.kind != tokString && t.kind != tokIdent {
				return nil, fmt.Errorf("sql: cohort wants a name, found %s", t)
			}
			p.i++
			w.Cohort = t.text
		case "queue":
			n, err := p.signedInt()
			if err != nil {
				return nil, err
			}
			if n <= 0 {
				return nil, fmt.Errorf("sql: queue must be positive, got %d", n)
			}
			w.Queue = n
		case "replay":
			t := p.peek()
			if t.kind != tokIdent || (strings.ToLower(t.text) != "true" && strings.ToLower(t.text) != "false") {
				return nil, fmt.Errorf("sql: replay wants true or false, found %s", t)
			}
			p.i++
			w.Replay = strings.ToLower(t.text) == "true"
		default:
			return nil, fmt.Errorf("sql: unknown subscribe option %q (want overflow, rate, timeout_ms, cohort, queue, or replay)", key)
		}
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *parser) selectStmt() (Statement, error) {
	s := &Select{}
	s.Distinct = p.accept("distinct")

	// Select list.
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.accept(",") {
			continue
		}
		break
	}

	if err := p.expect("from"); err != nil {
		return nil, err
	}
	for {
		src, err := p.ident()
		if err != nil {
			return nil, err
		}
		item := FromItem{Source: src}
		if p.accept("as") {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			item.Alias = a
		} else if t := p.peek(); t.kind == tokIdent && !reservedAfterExpr[strings.ToLower(t.text)] {
			item.Alias = t.text
			p.i++
		}
		s.From = append(s.From, item)
		if p.accept(",") {
			continue
		}
		break
	}

	if p.accept("where") {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept("group") {
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, c)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.accept("order") {
		if err := p.expect("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if p.accept("desc") {
				k.Desc = true
			} else {
				p.accept("asc")
			}
			s.OrderBy = append(s.OrderBy, k)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.accept("limit") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected number after LIMIT, found %s", t)
		}
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	if p.accept("for") {
		w, err := p.forLoop()
		if err != nil {
			return nil, err
		}
		s.Window = w
	}
	return s, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	if p.accept("*") {
		return SelectItem{Star: true}, nil
	}
	// Aggregate: aggname '(' ... ')'.
	if t := p.peek(); t.kind == tokIdent {
		if kind, ok := operator.ParseAggKind(strings.ToLower(t.text)); ok {
			if p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
				p.i += 2
				spec := &operator.AggSpec{Kind: kind}
				if p.accept("*") {
					if kind != operator.AggCount {
						return SelectItem{}, fmt.Errorf("sql: %s(*) is not valid", kind)
					}
				} else {
					arg, err := p.addExpr()
					if err != nil {
						return SelectItem{}, err
					}
					spec.Arg = arg
				}
				if err := p.expect(")"); err != nil {
					return SelectItem{}, err
				}
				item := SelectItem{Agg: spec}
				if p.accept("as") {
					a, err := p.ident()
					if err != nil {
						return SelectItem{}, err
					}
					spec.As = a
					item.As = a
				}
				return item, nil
			}
		}
	}
	e, err := p.addExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("as") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.As = a
	}
	// "source.*" projection of one input.
	if c, ok := e.(*expr.ColumnRef); ok && c.Name == "*" {
		item = SelectItem{Star: true, Expr: nil, As: c.Source}
	}
	return item, nil
}

// ----------------------------------------------------- expressions

func (p *parser) orExpr() (expr.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = expr.Bin(expr.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = expr.Bin(expr.OpAnd, left, right)
	}
	return left, nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.accept("not") {
		child, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.Not(child), nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "==": expr.OpEq, "!=": expr.OpNe, "<>": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	left, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.i++
			right, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return expr.Bin(op, left, right), nil
		}
	}
	return left, nil
}

func (p *parser) addExpr() (expr.Expr, error) {
	left, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "+" && t.text != "-") {
			return left, nil
		}
		p.i++
		right, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		op := expr.OpAdd
		if t.text == "-" {
			op = expr.OpSub
		}
		left = expr.Bin(op, left, right)
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	left, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokSymbol || (t.text != "*" && t.text != "/" && t.text != "%") {
			return left, nil
		}
		p.i++
		right, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		var op expr.Op
		switch t.text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		default:
			op = expr.OpMod
		}
		left = expr.Bin(op, left, right)
	}
}

func (p *parser) unaryExpr() (expr.Expr, error) {
	if t := p.peek(); t.kind == tokSymbol && t.text == "-" {
		p.i++
		child, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return expr.Neg(child), nil
	}
	return p.primary()
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.i++
		v, err := parseNumber(t.text)
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case t.kind == tokString:
		p.i++
		return expr.Lit(tuple.String(t.text)), nil
	case t.kind == tokSymbol && t.text == "(":
		p.i++
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "true"):
		p.i++
		return expr.Lit(tuple.Bool(true)), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "false"):
		p.i++
		return expr.Lit(tuple.Bool(false)), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "null"):
		p.i++
		return expr.Lit(tuple.Null()), nil
	case t.kind == tokIdent:
		return p.colRef()
	}
	return nil, fmt.Errorf("sql: expected expression, found %s", t)
}

// colRef parses ident['.'(ident|'*')].
func (p *parser) colRef() (*expr.ColumnRef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.accept(".") {
		if p.accept("*") {
			return expr.Col(name, "*"), nil
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		return expr.Col(name, col), nil
	}
	return expr.Col("", name), nil
}

// ----------------------------------------------------- for-loop windows

// forLoop parses "[PHYSICAL] ( [t = init]; [cond]; [step] ) {
// WindowIs(...); ... }". With PHYSICAL, the loop variable and bounds are
// wall-clock milliseconds instead of per-stream sequence numbers (§4.1:
// "multiple simultaneous notions of time, such as logical sequence
// numbers or physical time").
func (p *parser) forLoop() (*window.Spec, error) {
	domain := tuple.LogicalTime
	if p.accept("physical") {
		domain = tuple.PhysicalTime
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	spec := &window.Spec{Domain: domain, Cond: window.Cond{Op: window.CondTrue}}

	// init
	if !p.accept(";") {
		if err := p.expectLoopVar(); err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		init, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if init.DependsOnT() {
			return nil, fmt.Errorf("sql: window init may not reference t")
		}
		spec.Init = init
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}

	// condition
	if !p.accept(";") {
		if err := p.expectLoopVar(); err != nil {
			return nil, err
		}
		t := p.peek()
		var op window.CondOp
		switch {
		case t.kind == tokSymbol && (t.text == "==" || t.text == "="):
			op = window.CondEq
		case t.kind == tokSymbol && t.text == "<":
			op = window.CondLt
		case t.kind == tokSymbol && t.text == "<=":
			op = window.CondLe
		case t.kind == tokSymbol && t.text == ">":
			op = window.CondGt
		case t.kind == tokSymbol && t.text == ">=":
			op = window.CondGe
		default:
			return nil, fmt.Errorf("sql: bad window condition operator %s", t)
		}
		p.i++
		rhs, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if rhs.DependsOnT() {
			return nil, fmt.Errorf("sql: window condition bound may not reference t")
		}
		spec.Cond = window.Cond{Op: op, RHS: rhs}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}

	// step
	if !p.accept(")") {
		if err := p.expectLoopVar(); err != nil {
			return nil, err
		}
		t := p.peek()
		switch {
		case t.kind == tokSymbol && t.text == "++":
			p.i++
			spec.Step = 1
		case t.kind == tokSymbol && (t.text == "+=" || t.text == "-="):
			p.i++
			n, err := p.signedInt()
			if err != nil {
				return nil, err
			}
			if t.text == "-=" {
				n = -n
			}
			spec.Step = n
		case t.kind == tokSymbol && t.text == "=":
			// "t = c": representable when init is a constant — the delta
			// is c - init (the paper's snapshot idiom "for(; t==0; t=-1)").
			p.i++
			c, err := p.linExpr()
			if err != nil {
				return nil, err
			}
			if c.DependsOnT() || c.STCoef != 0 || spec.Init.TCoef != 0 || spec.Init.STCoef != 0 {
				return nil, fmt.Errorf("sql: step assignment requires constant init and step")
			}
			spec.Step = c.Const - spec.Init.Const
		default:
			return nil, fmt.Errorf("sql: bad window step %s", t)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}

	if err := p.expect("{"); err != nil {
		return nil, err
	}
	for !p.accept("}") {
		if err := p.expect("windowis"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		stream, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		left, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		right, err := p.linExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		p.accept(";")
		spec.Defs = append(spec.Defs, window.Def{Stream: stream, Left: left, Right: right})
	}
	if len(spec.Defs) == 0 {
		return nil, fmt.Errorf("sql: for-loop needs at least one WindowIs")
	}
	return spec, nil
}

func (p *parser) expectLoopVar() error {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "t") {
		p.i++
		return nil
	}
	return fmt.Errorf("sql: expected loop variable t, found %s", t)
}

func (p *parser) signedInt() (int64, error) {
	neg := false
	if t := p.peek(); t.kind == tokSymbol && t.text == "-" {
		p.i++
		neg = true
	}
	t := p.peek()
	if t.kind != tokNumber || strings.ContainsRune(t.text, '.') {
		return 0, fmt.Errorf("sql: expected integer, found %s", t)
	}
	p.i++
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, err
	}
	if neg {
		n = -n
	}
	return n, nil
}

// linExpr parses a linear expression over t and ST: additive terms, each
// a number, t, ST, or number*var.
func (p *parser) linExpr() (window.LinExpr, error) {
	var out window.LinExpr
	sign := int64(1)
	first := true
	for {
		if !first {
			t := p.peek()
			if t.kind == tokSymbol && t.text == "+" {
				p.i++
				sign = 1
			} else if t.kind == tokSymbol && t.text == "-" {
				p.i++
				sign = -1
			} else {
				return out, nil
			}
		} else {
			first = false
			if t := p.peek(); t.kind == tokSymbol && t.text == "-" {
				p.i++
				sign = -1
			}
		}
		term, err := p.linTerm()
		if err != nil {
			return out, err
		}
		out.TCoef += sign * term.TCoef
		out.STCoef += sign * term.STCoef
		out.Const += sign * term.Const
	}
}

func (p *parser) linTerm() (window.LinExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		if strings.ContainsRune(t.text, '.') {
			return window.LinExpr{}, fmt.Errorf("sql: window bounds must be integral, found %q", t.text)
		}
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return window.LinExpr{}, err
		}
		// optional * var
		if s := p.peek(); s.kind == tokSymbol && s.text == "*" {
			p.i++
			v, err := p.linVar()
			if err != nil {
				return window.LinExpr{}, err
			}
			return window.LinExpr{TCoef: n * v.TCoef, STCoef: n * v.STCoef}, nil
		}
		return window.LinExpr{Const: n}, nil
	case t.kind == tokIdent:
		v, err := p.linVar()
		if err != nil {
			return window.LinExpr{}, err
		}
		// optional * number
		if s := p.peek(); s.kind == tokSymbol && s.text == "*" {
			p.i++
			nt := p.peek()
			if nt.kind != tokNumber || strings.ContainsRune(nt.text, '.') {
				return window.LinExpr{}, fmt.Errorf("sql: expected integer after '*', found %s", nt)
			}
			p.i++
			n, err := strconv.ParseInt(nt.text, 10, 64)
			if err != nil {
				return window.LinExpr{}, err
			}
			return window.LinExpr{TCoef: v.TCoef * n, STCoef: v.STCoef * n}, nil
		}
		return v, nil
	}
	return window.LinExpr{}, fmt.Errorf("sql: expected window bound term, found %s", t)
}

func (p *parser) linVar() (window.LinExpr, error) {
	t := p.peek()
	if t.kind == tokIdent {
		switch strings.ToLower(t.text) {
		case "t":
			p.i++
			return window.TExpr(0), nil
		case "st":
			p.i++
			return window.STExpr(0), nil
		}
	}
	return window.LinExpr{}, fmt.Errorf("sql: expected t or ST, found %s", t)
}
