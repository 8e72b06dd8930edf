package operator

import (
	"sort"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
)

func TestJuggleReleasesHighPriorityFirst(t *testing.T) {
	j := NewJuggle("jug", expr.Col("", "price"), 100)
	var out []*tuple.Tuple
	prices := []float64{1, 9, 5, 7, 3}
	for i, p := range prices {
		_, err := j.Process(stock(int64(i+1), "A", p), collect(&out))
		if err != nil {
			t.Fatal(err)
		}
	}
	if j.Buffered() != 5 {
		t.Fatalf("buffered = %d", j.Buffered())
	}
	// Flush releases everything, best first.
	if err := j.Flush(collect(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || j.Buffered() != 0 {
		t.Fatalf("flushed %d, %d still buffered", len(out), j.Buffered())
	}
	got := make([]float64, len(out))
	for i, r := range out {
		got[i] = r.Values[2].F
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(got))) {
		t.Fatalf("release order = %v", got)
	}
}

func TestJuggleCapacityOvertflowReleasesBest(t *testing.T) {
	j := NewJuggle("jug", expr.Col("", "price"), 2)
	var out []*tuple.Tuple
	for i, p := range []float64{1, 2, 3} {
		_, _ = j.Process(stock(int64(i+1), "A", p), collect(&out))
	}
	// Capacity 2: third insert releases the best (3).
	if len(out) != 1 || out[0].Values[2].F != 3 {
		t.Fatalf("overflow release: %v", out)
	}
}

func TestJuggleReprioritize(t *testing.T) {
	j := NewJuggle("jug", expr.Col("", "price"), 100)
	var out []*tuple.Tuple
	for i, p := range []float64{1, 2, 3} {
		_, _ = j.Process(stock(int64(i+1), "A", p), collect(&out))
	}
	// Invert the priority: smallest price first.
	if err := j.SetPriority(expr.Neg(expr.Col("", "price"))); err != nil {
		t.Fatal(err)
	}
	_ = j.Flush(collect(&out))
	if out[0].Values[2].F != 1 {
		t.Fatalf("after reprioritize, first = %v", out[0])
	}
}

func TestJuggleFIFOTiebreak(t *testing.T) {
	j := NewJuggle("jug", expr.Lit(tuple.Float(1)), 100)
	var out []*tuple.Tuple
	for i := 1; i <= 3; i++ {
		_, _ = j.Process(stock(int64(i), "A", 0), collect(&out))
	}
	_ = j.Flush(collect(&out))
	for i, r := range out {
		if r.TS.Seq != int64(i+1) {
			t.Fatalf("tiebreak order: %v", out)
		}
	}
}

// ------------------------- StemModule ---------------------------------

func tradeSchema(src string) *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Source: src, Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: src, Name: "vol", Kind: tuple.KindInt},
	)
}

func trade(src string, seq int64, sym string, vol int64) *tuple.Tuple {
	t := tuple.New(tradeSchema(src), tuple.String(sym), tuple.Int(vol))
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

func TestStemModuleSymmetricJoin(t *testing.T) {
	// S.sym = T.sym
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "sym"), Right: expr.Col("T", "sym")}
	stS := NewStemModule("S", stem.New("S", expr.Col("S", "sym")), []expr.JoinFactor{jf}, expr.Col("S", "sym"))
	stT := NewStemModule("T", stem.New("T", expr.Col("T", "sym")), []expr.JoinFactor{jf}, expr.Col("T", "sym"))

	sTuple := trade("S", 1, "MSFT", 100)
	tTuple := trade("T", 1, "MSFT", 500)
	other := trade("T", 2, "IBM", 9)

	if !stS.IsBase(sTuple) || stS.IsBase(tTuple) {
		t.Fatal("IsBase wrong")
	}
	if err := stS.Build(sTuple); err != nil {
		t.Fatal(err)
	}
	if err := stT.Build(tTuple); err != nil {
		t.Fatal(err)
	}
	_ = stT.Build(other)

	// S probes T: must match MSFT only.
	if !stT.Interested(sTuple) {
		t.Fatal("T stem not interested in S probe")
	}
	if stT.Interested(tTuple) {
		t.Fatal("T stem interested in its own base tuple")
	}
	var out []*tuple.Tuple
	o, err := stT.Process(sTuple, collect(&out))
	if err != nil || o != Pass {
		t.Fatalf("probe: %v %v", o, err)
	}
	if len(out) != 1 {
		t.Fatalf("matches = %d", len(out))
	}
	j := out[0]
	if !j.Schema.HasSource("S") || !j.Schema.HasSource("T") {
		t.Fatalf("join schema: %v", j.Schema)
	}
	vi, _ := j.Schema.ColumnIndex("T", "vol")
	if j.Values[vi].I != 500 {
		t.Fatalf("wrong match: %v", j)
	}
}

func TestStemModuleQueryLineageIntersection(t *testing.T) {
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "sym"), Right: expr.Col("T", "sym")}
	stT := NewStemModule("T", stem.New("T", expr.Col("T", "sym")), []expr.JoinFactor{jf}, expr.Col("T", "sym"))
	tt := trade("T", 1, "A", 1)
	_ = stT.Build(tt)
	probe := trade("S", 1, "A", 2)
	probe.Lineage().Queries.Add(4)
	var out []*tuple.Tuple
	_, _ = stT.Process(probe, collect(&out))
	if len(out) != 1 || !out[0].Lin.Queries.Contains(4) {
		t.Fatal("probe lineage not propagated to join result")
	}
}

func TestStemModuleBandJoinResidual(t *testing.T) {
	// c2.vol > c1.vol (non-equi): scan probe with residual.
	jf := expr.JoinFactor{Op: expr.OpGt, Left: expr.Col("c2", "vol"), Right: expr.Col("c1", "vol")}
	st := NewStemModule("c2", stem.New("c2", nil), []expr.JoinFactor{jf}, nil)
	for i := int64(1); i <= 5; i++ {
		_ = st.Build(trade("c2", i, "X", i*10)) // vols 10..50
	}
	probe := trade("c1", 9, "X", 25)
	var out []*tuple.Tuple
	o, err := st.Process(probe, collect(&out))
	if err != nil || o != Pass {
		t.Fatalf("%v %v", o, err)
	}
	if len(out) != 3 { // 30, 40, 50
		t.Fatalf("matches = %d", len(out))
	}
}

func TestStemModuleEviction(t *testing.T) {
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "sym"), Right: expr.Col("T", "sym")}
	st := NewStemModule("T", stem.New("T", expr.Col("T", "sym")), []expr.JoinFactor{jf}, expr.Col("T", "sym"))
	for i := int64(1); i <= 10; i++ {
		_ = st.Build(trade("T", i, "A", i))
	}
	if n := st.EvictBefore(6); n != 5 {
		t.Fatalf("evicted %d", n)
	}
	var out []*tuple.Tuple
	_, _ = st.Process(trade("S", 99, "A", 0), collect(&out))
	if len(out) != 5 {
		t.Fatalf("matches after eviction = %d", len(out))
	}
}

func TestStemModuleNotInterestedWithoutFactor(t *testing.T) {
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "sym"), Right: expr.Col("T", "sym")}
	st := NewStemModule("T", stem.New("T", expr.Col("T", "sym")), []expr.JoinFactor{jf}, expr.Col("T", "sym"))
	// A tuple from stream R with no join factor to T must not probe.
	r := trade("R", 1, "A", 1)
	if st.Interested(r) {
		t.Fatal("unrelated stream probes SteM (cross product)")
	}
}
