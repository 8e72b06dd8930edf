package eddy

import (
	"testing"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func schemaFor(src string) *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Source: src, Name: "k", Kind: tuple.KindInt},
		tuple.Column{Source: src, Name: "v", Kind: tuple.KindFloat},
	)
}

func row(src string, seq, k int64, v float64) *tuple.Tuple {
	t := tuple.New(schemaFor(src), tuple.Int(k), tuple.Float(v))
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

func TestEddySingleFilter(t *testing.T) {
	f := operator.NewFilter("f", expr.Bin(expr.OpGt, expr.Col("S", "v"), expr.Lit(tuple.Float(10))))
	var out []*tuple.Tuple
	e := New([]operator.Module{f}, NewFixed([]int{0}), func(x *tuple.Tuple) { out = append(out, x) })
	for i := int64(1); i <= 10; i++ {
		if err := e.Admit(row("S", i, i, float64(i*2))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 { // v = 12..20
		t.Fatalf("outputs = %d", len(out))
	}
	s := e.Stats()
	if s.Admitted != 10 || s.Outputs != 5 || s.Dropped != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func buildJoinEddy(policy Policy, out *[]*tuple.Tuple) *Eddy {
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "k"), Right: expr.Col("T", "k")}
	smS := operator.NewStemModule("S", stem.New("S", expr.Col("S", "k")), []expr.JoinFactor{jf}, expr.Col("S", "k"))
	smT := operator.NewStemModule("T", stem.New("T", expr.Col("T", "k")), []expr.JoinFactor{jf}, expr.Col("T", "k"))
	return New([]operator.Module{smS, smT}, policy,
		func(x *tuple.Tuple) { *out = append(*out, x) })
}

func TestEddySymmetricJoin(t *testing.T) {
	var raw []*tuple.Tuple
	e := buildJoinEddy(NewFixed([]int{0, 1}), &raw)
	// Interleave S and T arrivals: keys 0..4 on each side, 2 T rows per key.
	for i := int64(0); i < 5; i++ {
		_ = e.Admit(row("S", i+1, i, 1))
		_ = e.Admit(row("T", i+1, i, 2))
		_ = e.Admit(row("T", i+6, i, 3))
	}
	if err := e.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	// Completed tuples spanning both sources are the join results.
	var joins []*tuple.Tuple
	for _, x := range raw {
		if x.Schema.HasSource("S") && x.Schema.HasSource("T") {
			joins = append(joins, x)
		}
	}
	if len(joins) != 10 { // 5 keys × 2 T rows
		t.Fatalf("join results = %d, want 10", len(joins))
	}
}

func TestEddyJoinMatchesNestedLoopUnderAnyPolicy(t *testing.T) {
	for name, mk := range map[string]func() Policy{
		"fixed":   func() Policy { return NewFixed([]int{1, 0}) },
		"random":  func() Policy { return NewRandom(42) },
		"lottery": func() Policy { return NewLottery(42) },
	} {
		var raw []*tuple.Tuple
		e := buildJoinEddy(mk(), &raw)
		sKeys := []int64{0, 1, 1, 2, 5}
		tKeys := []int64{1, 1, 2, 3, 5, 5}
		for i, k := range sKeys {
			_ = e.Admit(row("S", int64(i+1), k, 0))
		}
		for i, k := range tKeys {
			_ = e.Admit(row("T", int64(i+1), k, 0))
		}
		if err := e.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, a := range sKeys {
			for _, b := range tKeys {
				if a == b {
					want++
				}
			}
		}
		got := 0
		for _, x := range raw {
			if x.Schema.HasSource("S") && x.Schema.HasSource("T") {
				got++
			}
		}
		if got != want { // 2×2 + 1 + 2 = wanted
			t.Fatalf("%s: joins = %d, want %d", name, got, want)
		}
	}
}

func TestEddyFilterPlusJoin(t *testing.T) {
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "k"), Right: expr.Col("T", "k")}
	smS := operator.NewStemModule("S", stem.New("S", expr.Col("S", "k")), []expr.JoinFactor{jf}, expr.Col("S", "k"))
	smT := operator.NewStemModule("T", stem.New("T", expr.Col("T", "k")), []expr.JoinFactor{jf}, expr.Col("T", "k"))
	f := operator.NewFilter("f", expr.Bin(expr.OpGt, expr.Col("S", "v"), expr.Lit(tuple.Float(5))))
	var out []*tuple.Tuple
	e := New([]operator.Module{smS, smT, f}, NewLottery(1), func(x *tuple.Tuple) {
		if x.Schema.HasSource("S") && x.Schema.HasSource("T") {
			out = append(out, x)
		}
	})
	// S rows: k=1 v=10 (passes), k=2 v=1 (fails). T rows: k=1, k=2.
	_ = e.Admit(row("S", 1, 1, 10))
	_ = e.Admit(row("S", 2, 2, 1))
	_ = e.Admit(row("T", 1, 1, 0))
	_ = e.Admit(row("T", 2, 2, 0))
	if err := e.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	// The S k=2 row fails the filter. Depending on routing order it may
	// have already joined — but the join result also carries S.v and is
	// itself filtered. Either way exactly the k=1 join must survive.
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	ki, _ := out[0].Schema.ColumnIndex("S", "k")
	if out[0].Values[ki].I != 1 {
		t.Fatalf("wrong survivor: %v", out[0])
	}
}

func TestLotteryAdaptsToSelectivity(t *testing.T) {
	// Two commuting filters; f0 drops 90%, f1 drops 10%. The lottery
	// should route most tuples to the selective filter first.
	f0 := operator.NewFilter("sel", expr.Bin(expr.OpLt, expr.Col("S", "v"), expr.Lit(tuple.Float(10))))
	f1 := operator.NewFilter("loose", expr.Bin(expr.OpGe, expr.Col("S", "v"), expr.Lit(tuple.Float(-80))))
	pol := NewLottery(7)
	e := New([]operator.Module{f0, f1}, pol, func(*tuple.Tuple) {})
	for i := int64(0); i < 5000; i++ {
		_ = e.Admit(row("S", i+1, i, float64(i%100))) // 10% pass f0, 90%+ pass f1... v in 0..99
		if err := e.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
	}
	// f0 (drops 90%) should be routed first for most tuples: its In count
	// should be close to the admitted count, f1's much lower.
	s0 := f0.ModuleStats().In
	s1 := f1.ModuleStats().In
	if s0 <= s1 {
		t.Fatalf("lottery did not favor the selective filter: sel=%d loose=%d", s0, s1)
	}
	// Routing both-first would give s1 ≈ 5000; adaptive routing should
	// route f1 only for survivors of f0 (≈500) plus exploration.
	if float64(s1) > 0.5*float64(s0) {
		t.Fatalf("weak adaptation: sel=%d loose=%d", s0, s1)
	}
}

func TestBatchingReducesChooseCalls(t *testing.T) {
	mk := func(batch int) Stats {
		f := operator.NewFilter("f", expr.Bin(expr.OpGt, expr.Col("S", "v"), expr.Lit(tuple.Float(-1))))
		e := New([]operator.Module{f}, NewLottery(3), func(*tuple.Tuple) {})
		e.BatchSize = batch
		for i := int64(0); i < 1000; i++ {
			_ = e.Admit(row("S", i+1, i, float64(i)))
		}
		if err := e.RunUntilIdle(0); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	s1 := mk(1)
	s64 := mk(64)
	if s1.Outputs != 1000 || s64.Outputs != 1000 {
		t.Fatalf("outputs: %d, %d", s1.Outputs, s64.Outputs)
	}
	if s64.ChooseCalls*10 > s1.ChooseCalls {
		t.Fatalf("batching did not amortize: batch1=%d batch64=%d", s1.ChooseCalls, s64.ChooseCalls)
	}
}

func TestFixedHopsRoutesThroughMultipleModules(t *testing.T) {
	f0 := operator.NewFilter("a", expr.Bin(expr.OpGt, expr.Col("S", "v"), expr.Lit(tuple.Float(-1))))
	f1 := operator.NewFilter("b", expr.Bin(expr.OpGt, expr.Col("S", "v"), expr.Lit(tuple.Float(-2))))
	e := New([]operator.Module{f0, f1}, NewFixed([]int{0, 1}), func(*tuple.Tuple) {})
	e.FixedHops = 2
	for i := int64(0); i < 100; i++ {
		_ = e.Admit(row("S", i+1, i, 1))
	}
	if err := e.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Outputs != 100 {
		t.Fatalf("outputs = %d", s.Outputs)
	}
	// With 2 hops per decision, choose calls ≈ admitted (not 2×).
	if s.ChooseCalls > 110 {
		t.Fatalf("ChooseCalls = %d with FixedHops=2", s.ChooseCalls)
	}
}

func TestAlternativeGroupRoutesOnce(t *testing.T) {
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "k"), Right: expr.Col("T", "k")}
	// Two alternative access paths to T: an indexed stem and a scan stem.
	a := operator.NewStemModule("T", stem.New("T", expr.Col("T", "k")), []expr.JoinFactor{jf}, expr.Col("T", "k"))
	b := operator.NewStemModule("T", stem.New("T", nil), []expr.JoinFactor{jf}, nil)
	a.SetGroup("joinT")
	b.SetGroup("joinT")
	var out []*tuple.Tuple
	e := New([]operator.Module{a, b}, NewRandom(5), func(x *tuple.Tuple) {
		if x.Schema.HasSource("S") && x.Schema.HasSource("T") {
			out = append(out, x)
		}
	})
	// Both stems hold the same T data (admission builds into both).
	for i := int64(0); i < 10; i++ {
		_ = e.Admit(row("T", i+1, i%5, 0))
	}
	for i := int64(0); i < 100; i++ {
		_ = e.Admit(row("S", i+1, i%5, 0))
	}
	if err := e.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	// Each S row matches exactly 2 T rows; with both paths live a double
	// visit would double the results.
	if len(out) != 200 {
		t.Fatalf("join results = %d, want 200", len(out))
	}
	sa, sb := a.ModuleStats().In, b.ModuleStats().In
	if sa+sb != 100 {
		t.Fatalf("alternative group visits = %d + %d, want 100 total", sa, sb)
	}
	if sa == 0 || sb == 0 {
		t.Fatalf("random policy never used one path: %d, %d", sa, sb)
	}
}

func TestEddyWithWindowAggFlush(t *testing.T) {
	spec := window.Landmark("S", 1, 1, 3)
	agg, err := operator.NewWindowAgg("agg", "S", spec, 0, nil,
		[]operator.AggSpec{{Kind: operator.AggCount}}, operator.StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	e := New([]operator.Module{agg}, NewFixed([]int{0}), func(x *tuple.Tuple) { out = append(out, x) })
	for i := int64(1); i <= 3; i++ {
		_ = e.Admit(row("S", i, i, 0))
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Windows [1,1],[1,2] close on arrival; [1,3] closes at flush.
	if len(out) != 3 {
		t.Fatalf("agg results = %d", len(out))
	}
	if out[2].Values[1].I != 3 {
		t.Fatalf("final count = %v", out[2])
	}
}

func TestPoliciesChooseFromReadySet(t *testing.T) {
	ready := bitset.FromIndices(2, 5, 9)
	for name, p := range map[string]Policy{
		"fixed":   NewFixed([]int{9, 5, 2}),
		"random":  NewRandom(1),
		"lottery": NewLottery(1),
	} {
		for i := 0; i < 50; i++ {
			m := p.Choose(ready)
			if !ready.Contains(m) {
				t.Fatalf("%s chose %d outside ready set", name, m)
			}
		}
	}
	if NewFixed([]int{0}).Choose(bitset.FromIndices(3)) != 3 {
		t.Fatal("fixed must fall back to unknown ready modules")
	}
}

func TestLotteryTicketAccounting(t *testing.T) {
	l := NewLottery(1)
	// Module 0 consumes without producing (selective): tickets rise.
	for i := 0; i < 100; i++ {
		l.Observe(0, operator.Drop, 0, 100)
		l.Observe(1, operator.Pass, 1, 100)
	}
	if l.Tickets(0) <= l.Tickets(1) {
		t.Fatalf("tickets: selective=%v loose=%v", l.Tickets(0), l.Tickets(1))
	}
}

func TestEddyPendingAndFlushPartialBatch(t *testing.T) {
	f := operator.NewFilter("f", expr.Bin(expr.OpGt, expr.Col("S", "v"), expr.Lit(tuple.Float(-1))))
	var out []*tuple.Tuple
	e := New([]operator.Module{f}, NewFixed([]int{0}), func(x *tuple.Tuple) { out = append(out, x) })
	e.BatchSize = 100
	for i := int64(0); i < 5; i++ { // fewer than one batch
		_ = e.Admit(row("S", i+1, i, 1))
	}
	if e.Pending() == 0 {
		t.Fatal("partial batch not pending")
	}
	if err := e.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("outputs = %d", len(out))
	}
}
