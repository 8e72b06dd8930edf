package operator

import (
	"fmt"
	"math/rand"
	"testing"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

func gfTuple(price float64, queries ...int) *tuple.Tuple {
	t := stock(1, "X", price)
	for _, q := range queries {
		t.Lineage().Queries.Add(q)
	}
	return t
}

func addFactor(t *testing.T, g *GroupedFilter, q int, op expr.Op, bound float64) {
	t.Helper()
	f := expr.RangeFactor{Col: expr.Col("", "price"), Op: op, Val: tuple.Float(bound)}
	if err := g.AddFactor(q, f); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedFilterRangeClasses(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "price"))
	addFactor(t, g, 0, expr.OpGt, 50) // q0: price > 50
	addFactor(t, g, 1, expr.OpGt, 80) // q1: price > 80
	addFactor(t, g, 2, expr.OpLt, 30) // q2: price < 30
	addFactor(t, g, 3, expr.OpGe, 60) // q3: price >= 60
	addFactor(t, g, 4, expr.OpLe, 60) // q4: price <= 60

	tp := gfTuple(60, 0, 1, 2, 3, 4)
	out, err := g.Process(tp, noEmit)
	if err != nil || out != Pass {
		t.Fatalf("process: %v %v", out, err)
	}
	q := &tp.Lin.Queries
	// 60: q0 (>50) pass, q1 (>80) fail, q2 (<30) fail, q3 (>=60) pass, q4 (<=60) pass
	for _, want := range []struct {
		q    int
		pass bool
	}{{0, true}, {1, false}, {2, false}, {3, true}, {4, true}} {
		if q.Contains(want.q) != want.pass {
			t.Errorf("q%d pass = %v, want %v", want.q, q.Contains(want.q), want.pass)
		}
	}
}

func TestGroupedFilterEqNe(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "sym"))
	mk := func(q int, op expr.Op, s string) {
		if err := g.AddFactor(q, expr.RangeFactor{Col: expr.Col("", "sym"), Op: op, Val: tuple.String(s)}); err != nil {
			t.Fatal(err)
		}
	}
	mk(0, expr.OpEq, "MSFT")
	mk(1, expr.OpEq, "IBM")
	mk(2, expr.OpNe, "MSFT")
	mk(3, expr.OpNe, "ORCL")

	tp := stock(1, "MSFT", 1)
	for q := 0; q < 4; q++ {
		tp.Lineage().Queries.Add(q)
	}
	if out, err := g.Process(tp, noEmit); err != nil || out != Pass {
		t.Fatalf("process: %v %v", out, err)
	}
	q := &tp.Lin.Queries
	for _, want := range []struct {
		q    int
		pass bool
	}{{0, true}, {1, false}, {2, false}, {3, true}} {
		if q.Contains(want.q) != want.pass {
			t.Errorf("q%d = %v, want %v", want.q, q.Contains(want.q), want.pass)
		}
	}
}

func TestGroupedFilterDropWhenNoQueriesRemain(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "price"))
	addFactor(t, g, 0, expr.OpGt, 100)
	tp := gfTuple(50, 0)
	out, err := g.Process(tp, noEmit)
	if err != nil || out != Drop {
		t.Fatalf("got %v, %v; want Drop", out, err)
	}
	if g.ModuleStats().Dropped != 1 {
		t.Fatal("drop not counted")
	}
}

func TestGroupedFilterUninterestedQueriesUnaffected(t *testing.T) {
	// A query with no factor on this attribute must keep its bit.
	g := NewGroupedFilter(expr.Col("", "price"))
	addFactor(t, g, 0, expr.OpGt, 100)
	tp := gfTuple(50, 0, 9) // q9 has no factors here
	out, err := g.Process(tp, noEmit)
	if err != nil || out != Pass {
		t.Fatalf("got %v, %v", out, err)
	}
	if tp.Lin.Queries.Contains(0) || !tp.Lin.Queries.Contains(9) {
		t.Fatalf("lineage = %v", tp.Lin.Queries.String())
	}
}

func TestGroupedFilterMultipleFactorsPerQuery(t *testing.T) {
	// q0: 20 < price < 80 (two factors, both must pass).
	g := NewGroupedFilter(expr.Col("", "price"))
	addFactor(t, g, 0, expr.OpGt, 20)
	addFactor(t, g, 0, expr.OpLt, 80)
	for _, c := range []struct {
		price float64
		pass  bool
	}{{50, true}, {10, false}, {90, false}, {20, false}, {80, false}} {
		tp := gfTuple(c.price, 0)
		out, _ := g.Process(tp, noEmit)
		got := out == Pass && tp.Lin.Queries.Contains(0)
		if got != c.pass {
			t.Errorf("price %v: pass=%v want %v", c.price, got, c.pass)
		}
	}
}

func TestGroupedFilterContradictoryEquality(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "sym"))
	mk := func(q int, s string) {
		_ = g.AddFactor(q, expr.RangeFactor{Col: expr.Col("", "sym"), Op: expr.OpEq, Val: tuple.String(s)})
	}
	mk(0, "A")
	mk(0, "B") // q0: sym='A' AND sym='B' — unsatisfiable
	mk(1, "A")
	tp := stock(1, "A", 1)
	tp.Lineage().Queries.Add(0)
	tp.Lineage().Queries.Add(1)
	if out, _ := g.Process(tp, noEmit); out != Pass {
		t.Fatal("q1 should keep tuple alive")
	}
	if tp.Lin.Queries.Contains(0) || !tp.Lin.Queries.Contains(1) {
		t.Fatalf("lineage = %v", tp.Lin.Queries.String())
	}
}

func TestGroupedFilterDuplicateEqualityFactors(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "sym"))
	f := expr.RangeFactor{Col: expr.Col("", "sym"), Op: expr.OpEq, Val: tuple.String("A")}
	_ = g.AddFactor(0, f)
	_ = g.AddFactor(0, f) // duplicate conjunct: still satisfiable
	tp := stock(1, "A", 1)
	tp.Lineage().Queries.Add(0)
	if out, _ := g.Process(tp, noEmit); out != Pass || !tp.Lin.Queries.Contains(0) {
		t.Fatal("duplicate equality factors should both match")
	}
}

func TestGroupedFilterRemoveQuery(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "price"))
	addFactor(t, g, 0, expr.OpGt, 100) // would fail price=50
	addFactor(t, g, 1, expr.OpLt, 100) // passes price=50
	g.RemoveQuery(0)
	if g.QueryCount() != 1 {
		t.Fatalf("QueryCount = %d", g.QueryCount())
	}
	// q0's factor must no longer fail anything — but q0's bit is
	// also owned by the removed query; tuple carrying only q1 passes.
	tp := gfTuple(50, 1)
	if out, _ := g.Process(tp, noEmit); out != Pass || !tp.Lin.Queries.Contains(1) {
		t.Fatal("q1 affected by removed q0")
	}
	g.RemoveQuery(99) // unknown: no-op
}

func TestGroupedFilterWrongAttribute(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "price"))
	err := g.AddFactor(0, expr.RangeFactor{Col: expr.Col("", "sym"), Op: expr.OpEq, Val: tuple.String("A")})
	if err == nil {
		t.Fatal("factor on wrong attribute accepted")
	}
}

func TestGroupedFilterMatchQueries(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "price"))
	addFactor(t, g, 0, expr.OpGt, 50)
	addFactor(t, g, 1, expr.OpLt, 50)
	universe := bitset.FromIndices(0, 1, 2)
	got := bitset.New(0)
	if err := g.MatchQueriesInto(tuple.Float(70), universe, got); err != nil {
		t.Fatal(err)
	}
	if !got.Contains(0) || got.Contains(1) || !got.Contains(2) {
		t.Fatalf("MatchQueriesInto = %v", got)
	}
}

// Ground truth comparison: grouped filter vs individually evaluated
// predicates over random factor sets and values.
func TestGroupedFilterAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	for trial := 0; trial < 50; trial++ {
		g := NewGroupedFilter(expr.Col("", "price"))
		const nq = 20
		factors := map[int][]expr.RangeFactor{}
		for q := 0; q < nq; q++ {
			for i := 0; i <= r.Intn(3); i++ {
				f := expr.RangeFactor{
					Col: expr.Col("", "price"),
					Op:  ops[r.Intn(len(ops))],
					Val: tuple.Float(float64(r.Intn(20))),
				}
				factors[q] = append(factors[q], f)
				if err := g.AddFactor(q, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		for probe := 0; probe < 40; probe++ {
			v := tuple.Float(float64(r.Intn(20)))
			universe := bitset.New(nq)
			for q := 0; q < nq; q++ {
				universe.Add(q)
			}
			got := bitset.New(nq)
			if err := g.MatchQueriesInto(v, universe, got); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < nq; q++ {
				want := true
				for _, f := range factors[q] {
					if !f.Matches(v) {
						want = false
						break
					}
				}
				if got.Contains(q) != want {
					t.Fatalf("trial %d v=%v q=%d: grouped=%v naive=%v (factors %v)",
						trial, v, q, got.Contains(q), want, factors[q])
				}
			}
		}
	}
}

func BenchmarkGroupedFilterProbe(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("factors=%d", n), func(b *testing.B) {
			g := NewGroupedFilter(expr.Col("", "price"))
			for q := 0; q < n; q++ {
				_ = g.AddFactor(q, expr.RangeFactor{
					Col: expr.Col("", "price"), Op: expr.OpGt,
					Val: tuple.Float(float64(q)),
				})
			}
			universe := bitset.New(n)
			for q := 0; q < n; q++ {
				universe.Add(q)
			}
			out := bitset.New(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.MatchQueriesInto(tuple.Float(float64(i%n)), universe, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGroupedFilterProbeZeroAlloc pins the steady-state probe at zero
// allocations. E2's sub-crossover loss was per-probe bitset allocation;
// this test keeps it from coming back.
func TestGroupedFilterProbeZeroAlloc(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "price"))
	q := 0
	for _, op := range []expr.Op{expr.OpGt, expr.OpGe, expr.OpLt, expr.OpLe} {
		for i := 0; i < 25; i++ {
			addFactor(t, g, q, op, float64(i*4))
			q++
		}
	}
	universe := bitset.New(0)
	for i := 0; i < q; i++ {
		universe.Add(i)
	}
	tp := gfTuple(50)
	lin := tp.Lineage()
	lin.Queries.CopyFrom(universe)
	// Warm up: first probes may size the scratch bitsets and rebuild the
	// range classes; steady state starts after that.
	if _, err := g.Process(tp, noEmit); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		lin.Queries.CopyFrom(universe)
		if _, err := g.Process(tp, noEmit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("grouped filter probe allocates %.1f per run, want 0", allocs)
	}

	// The standalone probe must be zero-alloc too.
	out := bitset.New(0)
	if err := g.MatchQueriesInto(tuple.Float(50), universe, out); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := g.MatchQueriesInto(tuple.Float(50), universe, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MatchQueriesInto allocates %.1f per run, want 0", allocs)
	}
}

// TestGroupedFilterProbeZeroAllocEq covers the equality/inequality probe
// path (hash lookup + scratch copy) at zero allocations.
func TestGroupedFilterProbeZeroAllocEq(t *testing.T) {
	g := NewGroupedFilter(expr.Col("", "sym"))
	syms := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	for q, s := range syms {
		if err := g.AddFactor(q, expr.RangeFactor{Col: expr.Col("", "sym"), Op: expr.OpEq, Val: tuple.String(s)}); err != nil {
			t.Fatal(err)
		}
	}
	for q, s := range syms {
		if err := g.AddFactor(len(syms)+q, expr.RangeFactor{Col: expr.Col("", "sym"), Op: expr.OpNe, Val: tuple.String(s)}); err != nil {
			t.Fatal(err)
		}
	}
	universe := bitset.New(0)
	for i := 0; i < 2*len(syms); i++ {
		universe.Add(i)
	}
	tp := stock(1, "C", 10)
	lin := tp.Lineage()
	lin.Queries.CopyFrom(universe)
	if _, err := g.Process(tp, noEmit); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		lin.Queries.CopyFrom(universe)
		if _, err := g.Process(tp, noEmit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("eq/ne probe allocates %.1f per run, want 0", allocs)
	}
}
