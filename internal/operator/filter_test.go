package operator

import (
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

var stockSchema = tuple.NewSchema(
	tuple.Column{Source: "stocks", Name: "day", Kind: tuple.KindInt},
	tuple.Column{Source: "stocks", Name: "sym", Kind: tuple.KindString},
	tuple.Column{Source: "stocks", Name: "price", Kind: tuple.KindFloat},
)

func stock(seq int64, sym string, price float64) *tuple.Tuple {
	t := tuple.New(stockSchema, tuple.Int(seq), tuple.String(sym), tuple.Float(price))
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

func noEmit(*tuple.Tuple) {}

func TestFilterPassDrop(t *testing.T) {
	f := NewFilter("f", expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(50))))
	out, err := f.Process(stock(1, "A", 60), noEmit)
	if err != nil || out != Pass {
		t.Fatalf("60: %v, %v", out, err)
	}
	out, err = f.Process(stock(2, "A", 40), noEmit)
	if err != nil || out != Drop {
		t.Fatalf("40: %v, %v", out, err)
	}
	s := f.ModuleStats()
	if s.In != 2 || s.Out != 1 || s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.Selectivity(); got != 0.5 {
		t.Fatalf("selectivity = %v", got)
	}
}

func TestFilterInterested(t *testing.T) {
	f := NewFilter("f", expr.Bin(expr.OpGt, expr.Col("", "price"), expr.Lit(tuple.Float(0))))
	if !f.Interested(stock(1, "A", 1)) {
		t.Fatal("not interested in matching schema")
	}
	other := tuple.NewSchema(tuple.Column{Source: "x", Name: "y", Kind: tuple.KindInt})
	if f.Interested(tuple.New(other, tuple.Int(1))) {
		t.Fatal("interested in unrelated schema")
	}
}

func TestFilterSetPredicateMidStream(t *testing.T) {
	f := NewFilter("f", expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("A"))))
	if out, _ := f.Process(stock(1, "A", 1), noEmit); out != Pass {
		t.Fatal("A should pass")
	}
	f.SetPredicate(expr.Bin(expr.OpEq, expr.Col("", "sym"), expr.Lit(tuple.String("B"))))
	if out, _ := f.Process(stock(2, "A", 1), noEmit); out != Drop {
		t.Fatal("A should drop after predicate change")
	}
}

func TestFilterError(t *testing.T) {
	f := NewFilter("f", expr.Bin(expr.OpLt, expr.Col("", "sym"), expr.Lit(tuple.Int(1))))
	if _, err := f.Process(stock(1, "A", 1), noEmit); err == nil {
		t.Fatal("incomparable predicate did not error")
	}
}

func TestStatsZeroValue(t *testing.T) {
	var s Stats
	if s.Selectivity() != 1 || s.CostPerTuple() != 0 {
		t.Fatal("zero-value stats")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Pass: "pass", Drop: "drop", Consumed: "consumed"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestProjectBasic(t *testing.T) {
	p := NewProject("out", []expr.Expr{
		expr.Col("", "sym"),
		expr.Bin(expr.OpMul, expr.Col("", "price"), expr.Lit(tuple.Float(2))),
	}, []string{"", "double"})
	var got *tuple.Tuple
	out, err := p.Process(stock(1, "A", 10), func(x *tuple.Tuple) { got = x })
	if err != nil || out != Consumed || got == nil {
		t.Fatalf("process: %v %v %v", out, err, got)
	}
	if got.Values[0].S != "A" || got.Values[1].F != 20 {
		t.Fatalf("projected: %v", got)
	}
	if got.Schema.Cols[1].Name != "double" || got.Schema.Cols[0].Name != "sym" {
		t.Fatalf("schema names: %v", got.Schema)
	}
	if got.TS.Seq != 1 {
		t.Fatal("timestamp not preserved")
	}
}

func TestProjectPreservesQueryLineage(t *testing.T) {
	p := NewProject("out", []expr.Expr{expr.Col("", "sym")}, nil)
	in := stock(1, "A", 10)
	in.Lineage().Queries.Add(3)
	in.Lineage().Queries.Add(7)
	var got *tuple.Tuple
	_, _ = p.Process(in, func(x *tuple.Tuple) { got = x })
	if got.Lin == nil || !got.Lin.Queries.Contains(3) || !got.Lin.Queries.Contains(7) {
		t.Fatal("lineage lost in projection")
	}
}

func TestProjectApplyAndError(t *testing.T) {
	p := NewProject("out", []expr.Expr{expr.Col("", "missing")}, nil)
	if _, err := p.Apply(stock(1, "A", 1)); err == nil {
		t.Fatal("missing column projected")
	}
	p2 := NewProject("out", []expr.Expr{expr.Col("", "price")}, nil)
	got, err := p2.Apply(stock(1, "A", 5))
	if err != nil || got.Values[0].F != 5 {
		t.Fatalf("Apply = %v, %v", got, err)
	}
}

func TestDupElim(t *testing.T) {
	d := NewDupElim("d")
	if out, _ := d.Process(stock(1, "A", 10), noEmit); out != Pass {
		t.Fatal("first should pass")
	}
	if out, _ := d.Process(stock(1, "A", 10), noEmit); out != Drop {
		t.Fatal("duplicate should drop")
	}
	if out, _ := d.Process(stock(1, "A", 11), noEmit); out != Pass {
		t.Fatal("distinct should pass")
	}
	if d.Size() != 2 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestDupElimEvict(t *testing.T) {
	d := NewDupElim("d")
	_, _ = d.Process(stock(1, "A", 10), noEmit)
	_, _ = d.Process(stock(50, "B", 10), noEmit)
	if n := d.EvictBefore(10); n != 1 {
		t.Fatalf("evicted %d", n)
	}
	// A's key was forgotten: the same row arriving later passes again.
	again := stock(1, "A", 10)
	again.TS.Seq = 60
	if out, _ := d.Process(again, noEmit); out != Pass {
		t.Fatal("evicted key should pass again")
	}
	// B survived eviction: a repeat is still a duplicate.
	bAgain := stock(50, "B", 10)
	bAgain.TS.Seq = 61
	if out, _ := d.Process(bAgain, noEmit); out != Drop {
		t.Fatal("unevicted duplicate should drop")
	}
}

func TestDupElimKeyIsFullRow(t *testing.T) {
	d := NewDupElim("d")
	_, _ = d.Process(stock(1, "A", 10), noEmit)
	// Different day → different row → passes.
	if out, _ := d.Process(stock(2, "A", 10), noEmit); out != Pass {
		t.Fatal("row with different day considered duplicate")
	}
}
