package sql

import (
	"strings"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func parseSelect(t *testing.T, src string) *Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, st)
	}
	return s
}

func TestCreateStream(t *testing.T) {
	st, err := Parse(`CREATE STREAM ClosingStockPrices (
		timestamp long, stockSymbol char, closingPrice float) ARCHIVED;`)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.(*CreateStream)
	if cs.Name != "ClosingStockPrices" || len(cs.Cols) != 3 || !cs.Archived {
		t.Fatalf("parsed: %+v", cs)
	}
	if cs.Cols[0].Kind != tuple.KindInt || cs.Cols[1].Kind != tuple.KindString ||
		cs.Cols[2].Kind != tuple.KindFloat {
		t.Fatalf("kinds: %+v", cs.Cols)
	}
}

func TestCreateStreamWithOptions(t *testing.T) {
	st, err := Parse(`CREATE STREAM ticks (price float) ARCHIVED
		WITH (overflow = 'drop-oldest')`)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.(*CreateStream)
	if !cs.Archived || cs.With == nil || cs.With.Overflow != "drop-oldest" {
		t.Fatalf("parsed: %+v with %+v", cs, cs.With)
	}

	st, err = Parse(`CREATE STREAM s (v int) WITH (overflow = block, timeout_ms = 250)`)
	if err != nil {
		t.Fatal(err)
	}
	cs = st.(*CreateStream)
	if cs.With == nil || cs.With.Overflow != "block" || cs.With.TimeoutMs != 250 {
		t.Fatalf("parsed with: %+v", cs.With)
	}

	st, err = Parse(`CREATE STREAM s (v int) WITH (overflow = 'sample', rate = 0.25)`)
	if err != nil {
		t.Fatal(err)
	}
	cs = st.(*CreateStream)
	if cs.With == nil || cs.With.Overflow != "sample" || cs.With.SampleP != 0.25 {
		t.Fatalf("parsed with: %+v", cs.With)
	}

	// No WITH clause leaves the options nil (historical default).
	st, err = Parse(`CREATE STREAM s (v int)`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*CreateStream).With != nil {
		t.Fatal("expected nil With without a WITH clause")
	}

	for _, bad := range []string{
		`CREATE STREAM s (v int) WITH (overflow = 'lossy')`,
		`CREATE STREAM s (v int) WITH (frobnicate = 1)`,
		`CREATE STREAM s (v int) WITH (rate = 1.5)`,
		`CREATE STREAM s (v int) WITH (timeout_ms = -5)`,
		`CREATE STREAM s (v int) WITH (overflow = 'block'`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("%q should not parse", bad)
		}
	}
}

func TestCreateTableAndInsert(t *testing.T) {
	st, err := Parse(`CREATE TABLE companies (sym string, hq string)`)
	if err != nil {
		t.Fatal(err)
	}
	if ct := st.(*CreateTable); ct.Name != "companies" || len(ct.Cols) != 2 {
		t.Fatalf("parsed: %+v", st)
	}
	st, err = Parse(`INSERT INTO companies VALUES ('MSFT', 'Redmond'), ('IBM', 'Armonk')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if ins.Table != "companies" || len(ins.Rows) != 2 || ins.Rows[1][1].S != "Armonk" {
		t.Fatalf("parsed: %+v", ins)
	}
}

func TestInsertLiteralKinds(t *testing.T) {
	st, err := Parse(`INSERT INTO x VALUES (1, -2.5, 'a''b', true, false, null)`)
	if err != nil {
		t.Fatal(err)
	}
	row := st.(*Insert).Rows[0]
	if row[0].I != 1 || row[1].F != -2.5 || row[2].S != "a'b" ||
		!row[3].B || row[4].B || !row[5].IsNull() {
		t.Fatalf("row: %v", row)
	}
}

func TestDrop(t *testing.T) {
	st, err := Parse(`DROP STREAM s`)
	if err != nil || st.(*DropSource).Name != "s" {
		t.Fatalf("%v %v", st, err)
	}
	if _, err := Parse(`DROP s`); err == nil {
		t.Fatal("DROP without kind accepted")
	}
}

// Paper example 1: snapshot query.
func TestPaperSnapshotQuery(t *testing.T) {
	s := parseSelect(t, `
		SELECT closingPrice, timestamp
		FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT'
		for (; t == 0; t = -1) {
			WindowIs(ClosingStockPrices, 1, 5);
		}`)
	if len(s.Items) != 2 || s.From[0].Source != "ClosingStockPrices" {
		t.Fatalf("select: %+v", s)
	}
	if s.Window == nil {
		t.Fatal("no window parsed")
	}
	if err := s.Window.Validate(); err != nil {
		t.Fatal(err)
	}
	k, _, _ := s.Window.Classify()
	if k != window.KindSnapshot {
		t.Fatalf("kind = %v", k)
	}
	seq := window.NewSequence(s.Window, 0)
	inst, ok := seq.Next()
	if !ok || inst.Ranges["ClosingStockPrices"] != (window.Range{Left: 1, Right: 5}) {
		t.Fatalf("window: %+v %v", inst, ok)
	}
	if _, again := seq.Next(); again {
		t.Fatal("snapshot repeated")
	}
}

// Paper example 2: landmark query.
func TestPaperLandmarkQuery(t *testing.T) {
	s := parseSelect(t, `
		SELECT closingPrice, timestamp
		FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT' and closingPrice > 50.00
		for (t = 101; t <= 1000; t++) {
			WindowIs(ClosingStockPrices, 101, t);
		}`)
	k, _, _ := s.Window.Classify()
	if k != window.KindLandmark {
		t.Fatalf("kind = %v", k)
	}
	if s.Window.Step != 1 || s.Window.Cond.Op != window.CondLe {
		t.Fatalf("loop: %+v", s.Window)
	}
	// WHERE decomposes into two range factors.
	factors := expr.Conjuncts(s.Where)
	if len(factors) != 2 {
		t.Fatalf("factors = %d", len(factors))
	}
	for _, f := range factors {
		if _, ok := expr.AsRangeFactor(f); !ok {
			t.Fatalf("not a range factor: %s", f)
		}
	}
}

// Paper example 3: sliding (hopping) aggregate.
func TestPaperSlidingQuery(t *testing.T) {
	s := parseSelect(t, `
		Select AVG(closingPrice)
		From ClosingStockPrices
		Where stockSymbol = 'MSFT'
		for (t = ST; t < ST + 50; t += 5) {
			WindowIs(ClosingStockPrices, t - 4, t);
		}`)
	if len(s.Items) != 1 || s.Items[0].Agg == nil || s.Items[0].Agg.Kind != operator.AggAvg {
		t.Fatalf("items: %+v", s.Items)
	}
	k, width, hop := s.Window.Classify()
	if k != window.KindSliding || width != 5 || hop != 5 {
		t.Fatalf("classify: %v %d %d", k, width, hop)
	}
	seq := window.NewSequence(s.Window, 100)
	inst, _ := seq.Next()
	if inst.Ranges["ClosingStockPrices"] != (window.Range{Left: 96, Right: 100}) {
		t.Fatalf("first window: %+v", inst)
	}
}

// Paper example 4: temporal band join with aliases.
func TestPaperBandJoinQuery(t *testing.T) {
	s := parseSelect(t, `
		Select c2.*
		FROM ClosingStockPrices as c1, ClosingStockPrices as c2
		WHERE c1.stockSymbol = 'MSFT' and
			c2.stockSymbol != 'MSFT' and
			c2.closingPrice > c1.closingPrice and
			c2.timestamp = c1.timestamp
		for (t = ST; t < ST + 20; t++) {
			WindowIs(c1, t - 4, t);
			WindowIs(c2, t - 4, t);
		}`)
	if len(s.From) != 2 || s.From[0].Alias != "c1" || s.From[1].Alias != "c2" {
		t.Fatalf("from: %+v", s.From)
	}
	if !s.Items[0].Star || s.Items[0].As != "c2" {
		t.Fatalf("c2.* item: %+v", s.Items[0])
	}
	factors := expr.Conjuncts(s.Where)
	if len(factors) != 4 {
		t.Fatalf("factors = %d", len(factors))
	}
	joins := 0
	for _, f := range factors {
		if _, ok := expr.AsJoinFactor(f); ok {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("join factors = %d", joins)
	}
	if len(s.Window.Defs) != 2 {
		t.Fatalf("window defs: %+v", s.Window.Defs)
	}
}

func TestSelectStar(t *testing.T) {
	s := parseSelect(t, `SELECT * FROM s`)
	if len(s.Items) != 1 || !s.Items[0].Star {
		t.Fatalf("items: %+v", s.Items)
	}
}

func TestSelectDistinctGroupOrderLimit(t *testing.T) {
	s := parseSelect(t, `
		SELECT DISTINCT sym, count(*) AS n
		FROM trades
		GROUP BY sym
		ORDER BY sym DESC, n
		LIMIT 10`)
	if !s.Distinct || len(s.GroupBy) != 1 || s.GroupBy[0].Name != "sym" {
		t.Fatalf("parsed: %+v", s)
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order: %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Fatalf("limit = %d", s.Limit)
	}
	if s.Items[1].Agg == nil || s.Items[1].Agg.Kind != operator.AggCount || s.Items[1].As != "n" {
		t.Fatalf("agg item: %+v", s.Items[1])
	}
}

func TestImplicitAlias(t *testing.T) {
	s := parseSelect(t, `SELECT x FROM stream1 a, stream2 b WHERE a.x = b.y`)
	if s.From[0].Alias != "a" || s.From[1].Alias != "b" {
		t.Fatalf("aliases: %+v", s.From)
	}
}

func TestExpressionPrecedence(t *testing.T) {
	s := parseSelect(t, `SELECT a FROM s WHERE a + 2 * 3 = 7 OR NOT b > 1 AND c < 2`)
	// (a + (2*3)) = 7 OR ((NOT b>1) AND c<2)
	or, ok := s.Where.(*expr.Binary)
	if !ok || or.Op != expr.OpOr {
		t.Fatalf("top: %s", s.Where)
	}
	str := s.Where.String()
	if !strings.Contains(str, "(2 * 3)") {
		t.Fatalf("mul precedence: %s", str)
	}
	and, ok := or.Right.(*expr.Binary)
	if !ok || and.Op != expr.OpAnd {
		t.Fatalf("right: %s", or.Right)
	}
}

func TestWindowBoundForms(t *testing.T) {
	cases := map[string]window.LinExpr{
		"WindowIs(s, 5, t)":           window.TExpr(0),
		"WindowIs(s, 5, t + 3)":       window.TExpr(3),
		"WindowIs(s, 5, ST - 2)":      window.STExpr(-2),
		"WindowIs(s, 5, 2 * t)":       {TCoef: 2},
		"WindowIs(s, 5, t * 2)":       {TCoef: 2},
		"WindowIs(s, 5, -t)":          {TCoef: -1},
		"WindowIs(s, 5, t + ST + 1)":  {TCoef: 1, STCoef: 1, Const: 1},
		"WindowIs(s, 5, -4)":          window.ConstExpr(-4),
		"WindowIs(s, 5, t - ST - 10)": {TCoef: 1, STCoef: -1, Const: -10},
	}
	for src, want := range cases {
		s := parseSelect(t, `SELECT a FROM s for (t = 0; ; t++) { `+src+` }`)
		got := s.Window.Defs[0].Right
		if got != want {
			t.Errorf("%s: right = %+v, want %+v", src, got, want)
		}
	}
}

func TestForLoopDefaults(t *testing.T) {
	// All three clauses empty: continuous from t=0 stepping... step empty
	// means Step 0 which fails validation unless one-shot; parser allows
	// it, validation rejects — check the parse only.
	s := parseSelect(t, `SELECT a FROM s for (;;) { WindowIs(s, t-4, t) }`)
	if s.Window.Cond.Op != window.CondTrue || s.Window.Step != 0 {
		t.Fatalf("defaults: %+v", s.Window)
	}
}

func TestForLoopStepVariants(t *testing.T) {
	for src, want := range map[string]int64{
		"t++":    1,
		"t -= 1": -1,
		"t += 7": 7,
		"t -= 3": -3,
		"t = -1": -1, // with init t=0
	} {
		s := parseSelect(t, `SELECT a FROM s for (t = 0; t == 0; `+src+`) { WindowIs(s, 1, 2) }`)
		if s.Window.Step != want {
			t.Errorf("%s: step = %d, want %d", src, s.Window.Step, want)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE STREAM s (a int);
		-- a comment
		SELECT a FROM s;
		CREATE TABLE u (b float);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM s",
		"SELECT FROM s",
		"SELECT a",
		"SELECT a FROM s WHERE",
		"SELECT a FROM s LIMIT x",
		"CREATE STREAM (a int)",
		"CREATE STREAM s (a blobby)",
		"INSERT INTO t VALUES (1",
		"SELECT a FROM s for (x = 0; ; t++) { WindowIs(s,1,2) }",
		"SELECT a FROM s for (t = t; ; t++) { WindowIs(s,1,2) }",
		"SELECT a FROM s for (t = 0; t < t; t++) { WindowIs(s,1,2) }",
		"SELECT a FROM s for (t = 0; ; t *= 2) { WindowIs(s,1,2) }",
		"SELECT a FROM s for (t = ST; ; t = 5) { WindowIs(s,1,2) }",
		"SELECT a FROM s for (t = 0; ; t++) { WindowIs(s, 1.5, 2) }",
		"SELECT a FROM s for (t = 0; ; t++) { }",
		"SELECT sum(*) FROM s",
		"SELECT 'unterminated FROM s",
		"SELECT a FROM s WITH (shards = 2)",     // SELECT takes no WITH block
		"SELECT a FROM s WITH (compiled = off)", // (only SUBSCRIBE does)
		"SUBSCRIBE SELECT a FROM s WITH (shards = 2)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestLexerEdgeCases(t *testing.T) {
	toks, err := lex("a<=b<>c!='x''y'--comment\n3.5.")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			texts = append(texts, tk.text)
		}
	}
	want := []string{"a", "<=", "b", "<>", "c", "!=", "x'y", "3.5", "."}
	if len(texts) != len(want) {
		t.Fatalf("tokens: %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if _, err := lex("@"); err == nil {
		t.Fatal("bad character accepted")
	}
}

func TestAggCaseInsensitive(t *testing.T) {
	s := parseSelect(t, `SELECT MiN(a), MAX(b), StdDev(c) FROM s`)
	kinds := []operator.AggKind{operator.AggMin, operator.AggMax, operator.AggStdDev}
	for i, k := range kinds {
		if s.Items[i].Agg == nil || s.Items[i].Agg.Kind != k {
			t.Fatalf("item %d: %+v", i, s.Items[i])
		}
	}
}

func TestEmptyWindowIsRejected(t *testing.T) {
	s := parseSelect(t, `SELECT a FROM s for (t = 0; t == 0; t = -1) { WindowIs(s, 1, 5); }`)
	if err := s.Window.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPhysicalWindowDomain(t *testing.T) {
	s := parseSelect(t, `
		SELECT count(*) FROM s
		FOR PHYSICAL (t = ST; ; t += 1000) { WindowIs(s, t - 999, t) }`)
	if s.Window.Domain != tuple.PhysicalTime {
		t.Fatalf("domain = %v", s.Window.Domain)
	}
	// Default stays logical.
	s = parseSelect(t, `SELECT count(*) FROM s FOR (t = ST; ; t++) { WindowIs(s, t, t) }`)
	if s.Window.Domain != tuple.LogicalTime {
		t.Fatalf("default domain = %v", s.Window.Domain)
	}
}

func TestSubscribeById(t *testing.T) {
	st, err := Parse(`SUBSCRIBE 7`)
	if err != nil {
		t.Fatal(err)
	}
	sub := st.(*Subscribe)
	if sub.Query != 7 || sub.Sel != nil || sub.With != nil {
		t.Fatalf("parsed: %+v", sub)
	}
}

func TestSubscribeByIdWithOptions(t *testing.T) {
	st, err := Parse(`SUBSCRIBE 3 WITH (overflow = 'drop-oldest', queue = 128,
		cohort = 'dashboard', replay = true, timeout_ms = 50, rate = 0.25)`)
	if err != nil {
		t.Fatal(err)
	}
	sub := st.(*Subscribe)
	w := sub.With
	if sub.Query != 3 || w == nil {
		t.Fatalf("parsed: %+v", sub)
	}
	if w.Overflow != "drop-oldest" || w.Queue != 128 || w.Cohort != "dashboard" ||
		!w.Replay || w.TimeoutMs != 50 || w.SampleP != 0.25 {
		t.Fatalf("with: %+v", w)
	}
}

func TestSubscribeSelectForm(t *testing.T) {
	st, err := Parse(`SUBSCRIBE SELECT sym, price FROM trades WHERE price > 10
		WITH (overflow = block)`)
	if err != nil {
		t.Fatal(err)
	}
	sub := st.(*Subscribe)
	if sub.Sel == nil || len(sub.Sel.Items) != 2 || sub.Sel.Where == nil {
		t.Fatalf("select: %+v", sub.Sel)
	}
	if sub.With == nil || sub.With.Overflow != "block" {
		t.Fatalf("with: %+v", sub.With)
	}
}

func TestSubscribeRejectsBadOptions(t *testing.T) {
	for _, src := range []string{
		`SUBSCRIBE`,                             // no id or SELECT
		`SUBSCRIBE trades`,                      // not an id
		`SUBSCRIBE 1 WITH (overflow = 'bogus')`, // unknown policy
		`SUBSCRIBE 1 WITH (queue = 0)`,          // non-positive ring
		`SUBSCRIBE 1 WITH (rate = 2)`,           // probability out of range
		`SUBSCRIBE 1 WITH (replay = maybe)`,     // not a boolean
		`SUBSCRIBE 1 WITH (timeout_ms = -5)`,    // negative wait
		`SUBSCRIBE 1 WITH (compression = 'gz')`, // unknown key
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}
