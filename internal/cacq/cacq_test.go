package cacq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

var stockSchema = tuple.NewSchema(
	tuple.Column{Source: "stocks", Name: "day", Kind: tuple.KindInt},
	tuple.Column{Source: "stocks", Name: "sym", Kind: tuple.KindString},
	tuple.Column{Source: "stocks", Name: "price", Kind: tuple.KindFloat},
)

var newsSchema = tuple.NewSchema(
	tuple.Column{Source: "news", Name: "sym", Kind: tuple.KindString},
	tuple.Column{Source: "news", Name: "score", Kind: tuple.KindFloat},
)

func stock(seq int64, sym string, price float64) *tuple.Tuple {
	t := tuple.New(stockSchema, tuple.Int(seq), tuple.String(sym), tuple.Float(price))
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

func news(seq int64, sym string, score float64) *tuple.Tuple {
	t := tuple.New(newsSchema, tuple.String(sym), tuple.Float(score))
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

type sink struct {
	rows map[int][]*tuple.Tuple
}

func newSink() *sink { return &sink{rows: map[int][]*tuple.Tuple{}} }

func (s *sink) deliver(id int, row *tuple.Tuple) {
	s.rows[id] = append(s.rows[id], row)
}

func TestSingleFilterQuery(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	err := e.AddQuery(&Query{
		ID:      0,
		Sources: []string{"stocks"},
		Where: expr.Bin(expr.OpAnd,
			expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("MSFT"))),
			expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(50)))),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := []*tuple.Tuple{
		stock(1, "MSFT", 60), stock(2, "MSFT", 40),
		stock(3, "IBM", 70), stock(4, "MSFT", 55),
	}
	for _, d := range data {
		if err := e.Push(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.rows[0]) != 2 {
		t.Fatalf("delivered %d rows", len(s.rows[0]))
	}
	if e.Delivered(0) != 2 || e.Stats().Delivered != 2 || e.Stats().Pushed != 4 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

func TestMultipleQueriesSharedFilters(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	// 50 queries: price > i*2 for query i.
	for i := 0; i < 50; i++ {
		err := e.AddQuery(&Query{
			ID:      i,
			Sources: []string{"stocks"},
			Where:   expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(float64(i*2)))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// One grouped filter serves all 50 queries.
	if len(e.gfilters) != 1 {
		t.Fatalf("grouped filters = %d", len(e.gfilters))
	}
	for seq := int64(1); seq <= 100; seq++ {
		_ = e.Push(stock(seq, "X", float64(seq)))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Query i receives prices strictly greater than 2i: count = 100 - 2i.
	for i := 0; i < 50; i++ {
		want := 100 - 2*i
		if got := len(s.rows[i]); got != want {
			t.Fatalf("query %d: %d rows, want %d", i, got, want)
		}
	}
}

func TestProjectionAndSelectNames(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	err := e.AddQuery(&Query{
		ID:          0,
		Sources:     []string{"stocks"},
		Select:      []expr.Expr{expr.Col("", "price"), expr.Col("", "day")},
		SelectNames: []string{"closingPrice", "timestamp"},
		Where:       expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("MSFT"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Push(stock(1, "MSFT", 50))
	_ = e.Run()
	rows := s.rows[0]
	if len(rows) != 1 || rows[0].Schema.Arity() != 2 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0].Schema.Cols[0].Name != "closingPrice" || rows[0].Values[0].F != 50 {
		t.Fatalf("row: %v %v", rows[0].Schema, rows[0])
	}
}

func TestJoinQueryAcrossStreams(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	err := e.AddQuery(&Query{
		ID:      0,
		Sources: []string{"stocks", "news"},
		Where: expr.Bin(expr.OpAnd,
			expr.Bin(expr.OpEq, expr.Col("stocks", "sym"), expr.Col("news", "sym")),
			expr.Bin(expr.OpGt, expr.Col("news", "score"), expr.Lit(tuple.Float(0.5)))),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.Push(stock(1, "MSFT", 50))
	_ = e.Push(news(1, "MSFT", 0.9))
	_ = e.Push(news(2, "MSFT", 0.1)) // fails score filter
	_ = e.Push(news(3, "IBM", 0.9))  // no stock match
	_ = e.Push(stock(2, "MSFT", 60)) // joins with news seq 1 (0.9)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.rows[0]) != 2 {
		for _, r := range s.rows[0] {
			t.Logf("row: %v", r)
		}
		t.Fatalf("join rows = %d, want 2", len(s.rows[0]))
	}
}

func TestFilterAndJoinQueriesCoexist(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	// q0: filter on stocks only.
	_ = e.AddQuery(&Query{
		ID: 0, Sources: []string{"stocks"},
		Where: expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(0))),
	})
	// q1: join stocks-news.
	_ = e.AddQuery(&Query{
		ID: 1, Sources: []string{"stocks", "news"},
		Where: expr.Bin(expr.OpEq, expr.Col("stocks", "sym"), expr.Col("news", "sym")),
	})
	_ = e.Push(stock(1, "A", 10))
	_ = e.Push(news(1, "A", 1))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// q0 gets the base stock tuple only; q1 gets the join only.
	if len(s.rows[0]) != 1 || s.rows[0][0].Schema.HasSource("news") {
		t.Fatalf("q0 rows: %v", s.rows[0])
	}
	if len(s.rows[1]) != 1 || !s.rows[1][0].Schema.HasSource("news") {
		t.Fatalf("q1 rows: %v", s.rows[1])
	}
}

func TestAggregateQuery(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	// Paper example 3: AVG(price) for MSFT over 5-day windows hopping 5.
	err := e.AddQuery(&Query{
		ID:        0,
		Sources:   []string{"stocks"},
		Where:     expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("MSFT"))),
		Window:    window.Sliding("stocks", 5, 5, 10),
		Aggs:      []operator.AggSpec{{Kind: operator.AggAvg, Arg: expr.Col("", "price")}},
		StartTime: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 11; seq++ {
		_ = e.Push(stock(seq, "MSFT", float64(seq)))
		_ = e.Push(stock(seq, "IBM", 1000)) // filtered out
		_ = e.Run()
	}
	rows := s.rows[0]
	if len(rows) != 2 {
		t.Fatalf("agg rows = %d", len(rows))
	}
	if rows[0].Values[1].F != 3 || rows[1].Values[1].F != 8 {
		t.Fatalf("avgs: %v %v", rows[0], rows[1])
	}
}

func TestWindowedJoinEvictsStems(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	err := e.AddQuery(&Query{
		ID:      0,
		Sources: []string{"stocks", "news"},
		Where:   expr.Bin(expr.OpEq, expr.Col("stocks", "sym"), expr.Col("news", "sym")),
		Window: &window.Spec{
			Domain: tuple.LogicalTime,
			Init:   window.STExpr(0),
			Cond:   window.Cond{Op: window.CondTrue},
			Step:   1,
			Defs: []window.Def{
				{Stream: "stocks", Left: window.TExpr(-4), Right: window.TExpr(0)},
				{Stream: "news", Left: window.TExpr(-4), Right: window.TExpr(0)},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 100; seq++ {
		_ = e.Push(stock(seq, fmt.Sprintf("s%d", seq), 1))
		_ = e.Push(news(seq, fmt.Sprintf("s%d", seq+1000), 1))
		_ = e.Run()
	}
	// Retention width 5: stems hold at most the last 5 sequence numbers.
	if size := e.stems["stocks"].SteM().Size(); size > 5 {
		t.Fatalf("stocks stem = %d tuples, want <= 5", size)
	}
	if size := e.stems["news"].SteM().Size(); size > 5 {
		t.Fatalf("news stem = %d tuples, want <= 5", size)
	}
}

func TestRemoveQueryStopsDelivery(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	_ = e.AddQuery(&Query{
		ID: 0, Sources: []string{"stocks"},
		Where: expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(0))),
	})
	_ = e.AddQuery(&Query{
		ID: 1, Sources: []string{"stocks"},
		Where: expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(0))),
	})
	_ = e.Push(stock(1, "A", 1))
	_ = e.Run()
	e.RemoveQuery(0)
	_ = e.Push(stock(2, "A", 1))
	_ = e.Run()
	if len(s.rows[0]) != 1 {
		t.Fatalf("q0 rows after removal = %d", len(s.rows[0]))
	}
	if len(s.rows[1]) != 2 {
		t.Fatalf("q1 rows = %d", len(s.rows[1]))
	}
	if e.QueryCount() != 1 {
		t.Fatalf("QueryCount = %d", e.QueryCount())
	}
}

func TestResidualPredicate(t *testing.T) {
	// An OR factor cannot enter a grouped filter; it must still be
	// enforced (at delivery).
	s := newSink()
	e := NewEngine(nil, s.deliver)
	_ = e.AddQuery(&Query{
		ID: 0, Sources: []string{"stocks"},
		Where: expr.Bin(expr.OpOr,
			expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("A"))),
			expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("B")))),
	})
	for i, sym := range []string{"A", "B", "C"} {
		_ = e.Push(stock(int64(i+1), sym, 1))
	}
	_ = e.Run()
	if len(s.rows[0]) != 2 {
		t.Fatalf("rows = %d", len(s.rows[0]))
	}
}

func TestPushErrors(t *testing.T) {
	e := NewEngine(nil, func(int, *tuple.Tuple) {})
	// No queries: pushes are dropped silently.
	if err := e.Push(stock(1, "A", 1)); err != nil {
		t.Fatal(err)
	}
	// Multi-source tuple rejected.
	j := tuple.Concat(stock(1, "A", 1), news(1, "A", 1))
	if err := e.Push(j); err == nil {
		t.Fatal("multi-source push accepted")
	}
}

func TestAddQueryErrors(t *testing.T) {
	e := NewEngine(nil, func(int, *tuple.Tuple) {})
	if err := e.AddQuery(&Query{ID: 0}); err == nil {
		t.Fatal("no sources accepted")
	}
	_ = e.AddQuery(&Query{ID: 1, Sources: []string{"stocks"}})
	if err := e.AddQuery(&Query{ID: 1, Sources: []string{"stocks"}}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := e.AddQuery(&Query{
		ID: 2, Sources: []string{"stocks"},
		Aggs: []operator.AggSpec{{Kind: operator.AggCount}},
	}); err == nil {
		t.Fatal("aggregate without window accepted")
	}
}

// Shared vs unshared ground truth: the shared engine must deliver the
// same rows per query as one isolated engine per query.
func TestSharedMatchesUnshared(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	syms := []string{"A", "B", "C", "D"}
	const nq = 16
	mkQuery := func(i int) *Query {
		return &Query{
			ID:      i,
			Sources: []string{"stocks"},
			Where: expr.Bin(expr.OpAnd,
				expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String(syms[i%len(syms)]))),
				expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(float64(i))))),
		}
	}
	var data []*tuple.Tuple
	for seq := int64(1); seq <= 500; seq++ {
		data = append(data, stock(seq, syms[r.Intn(len(syms))], float64(r.Intn(30))))
	}

	shared := newSink()
	se := NewEngine(nil, shared.deliver)
	for i := 0; i < nq; i++ {
		if err := se.AddQuery(mkQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range data {
		_ = se.Push(d.Clone())
		_ = se.Run()
	}

	for i := 0; i < nq; i++ {
		solo := newSink()
		ue := NewEngine(nil, solo.deliver)
		if err := ue.AddQuery(mkQuery(i)); err != nil {
			t.Fatal(err)
		}
		for _, d := range data {
			_ = ue.Push(d.Clone())
			_ = ue.Run()
		}
		if len(solo.rows[i]) != len(shared.rows[i]) {
			t.Fatalf("query %d: shared=%d unshared=%d rows",
				i, len(shared.rows[i]), len(solo.rows[i]))
		}
	}
}

func TestFlushClosesAggregates(t *testing.T) {
	s := newSink()
	e := NewEngine(nil, s.deliver)
	_ = e.AddQuery(&Query{
		ID:      0,
		Sources: []string{"stocks"},
		Window:  window.Landmark("stocks", 1, 5, 5),
		Aggs:    []operator.AggSpec{{Kind: operator.AggCount}},
	})
	for seq := int64(1); seq <= 5; seq++ {
		_ = e.Push(stock(seq, "A", 1))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(s.rows[0]) != 1 || s.rows[0][0].Values[1].I != 5 {
		t.Fatalf("flush rows: %v", s.rows[0])
	}
}

func slidingJoinWindow(width int64) *window.Spec {
	return &window.Spec{
		Domain: tuple.LogicalTime,
		Init:   window.STExpr(0),
		Cond:   window.Cond{Op: window.CondTrue},
		Step:   1,
		Defs: []window.Def{
			{Stream: "stocks", Left: window.TExpr(1 - width), Right: window.TExpr(0)},
			{Stream: "news", Left: window.TExpr(1 - width), Right: window.TExpr(0)},
		},
	}
}

// A query over one source can never probe a SteM, so a windowless
// selection beside a windowed join must not pin the join's state; and
// once the last join over a source leaves, its SteM empties for good.
func TestSingleSourceQueryDoesNotPinJoinState(t *testing.T) {
	const width = 100
	e := NewEngine(nil, func(int, *tuple.Tuple) {})
	if err := e.AddQuery(&Query{
		ID:      0,
		Sources: []string{"stocks", "news"},
		Where:   expr.Bin(expr.OpEq, expr.Col("stocks", "sym"), expr.Col("news", "sym")),
		Window:  slidingJoinWindow(width),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery(&Query{ID: 1, Sources: []string{"stocks"}}); err != nil {
		t.Fatal(err)
	}
	push := func(from, to int64) {
		t.Helper()
		for seq := from; seq <= to; seq++ {
			if err := e.Push(stock(seq, "MSFT", 1)); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := e.stems["stocks"].SteM()
	push(1, 10000)
	if st.Size() == 0 || st.Size() > width {
		t.Fatalf("SteM(stocks) holds %d tuples under a %d-wide join window", st.Size(), width)
	}
	e.RemoveQuery(0)
	if st.Size() != 0 {
		t.Fatalf("SteM(stocks) holds %d tuples after its last join left", st.Size())
	}
	push(10001, 10100)
	if st.Size() != 0 {
		t.Fatalf("SteM(stocks) grew to %d tuples with no join to probe it", st.Size())
	}
	if e.Delivered(1) != 10100 {
		t.Fatalf("selection delivered %d of 10100 rows", e.Delivered(1))
	}
}

// A cancelled query's join predicate must leave with it: the survivor
// sees what an engine that never ran the cancelled query would show it.
func TestRemovedQueryJoinFactorLeavesWithIt(t *testing.T) {
	equi := expr.Bin(expr.OpEq, expr.Col("stocks", "sym"), expr.Col("news", "sym"))
	run := func(withCancelled bool) []string {
		s := newSink()
		e := NewEngine(nil, s.deliver)
		if err := e.AddQuery(&Query{ID: 1, Sources: []string{"stocks", "news"}, Where: equi}); err != nil {
			t.Fatal(err)
		}
		if withCancelled {
			if err := e.AddQuery(&Query{
				ID: 2, Sources: []string{"stocks", "news"},
				Where: expr.Bin(expr.OpAnd, equi,
					expr.Bin(expr.OpLt, expr.Col("stocks", "price"), expr.Col("news", "score"))),
			}); err != nil {
				t.Fatal(err)
			}
			e.RemoveQuery(2)
		}
		for seq := int64(1); seq <= 20; seq++ {
			_ = e.Push(stock(seq, fmt.Sprintf("s%d", seq%4), float64(seq)))
			_ = e.Push(news(seq, fmt.Sprintf("s%d", seq%4), 10))
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var rows []string
		for _, r := range s.rows[1] {
			rows = append(rows, r.String())
		}
		sort.Strings(rows)
		return rows
	}
	got, want := run(true), run(false)
	if len(want) == 0 {
		t.Fatal("control engine joined nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after cancelling q2, q1 got %d rows; a fresh engine gives %d", len(got), len(want))
	}
}
