package stem

import (
	"testing"
	"testing/quick"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

func schemaFor(src string) *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Source: src, Name: "k", Kind: tuple.KindInt},
		tuple.Column{Source: src, Name: "v", Kind: tuple.KindFloat},
	)
}

func mk(src string, seq int64, k int64, v float64) *tuple.Tuple {
	t := tuple.New(schemaFor(src), tuple.Int(k), tuple.Float(v))
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

func TestBuildAndIndexedProbe(t *testing.T) {
	s := New("T", expr.Col("T", "k"))
	for i := int64(1); i <= 5; i++ {
		if err := s.Build(mk("T", i, i%3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Size() != 5 || !s.Indexed() {
		t.Fatalf("Size=%d Indexed=%v", s.Size(), s.Indexed())
	}
	probe := mk("S", 9, 1, 0)
	got, err := s.Probe(probe, ProbeSpec{KeyExpr: expr.Col("S", "k")})
	if err != nil {
		t.Fatal(err)
	}
	// stored k values: 1,2,0,1,2 → k=1 matches seq 1 and 4
	if len(got) != 2 {
		t.Fatalf("matches = %d, want 2", len(got))
	}
	for _, j := range got {
		if j.Schema.Arity() != 4 {
			t.Fatalf("concat arity = %d", j.Schema.Arity())
		}
		ki, _ := j.Schema.ColumnIndex("T", "k")
		if j.Values[ki].I != 1 {
			t.Fatalf("wrong match: %v", j)
		}
	}
	st := s.Stats()
	if st.Builds != 5 || st.Probes != 1 || st.Matches != 2 || st.IndexProbes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScanProbeWithResidual(t *testing.T) {
	s := New("T", nil) // unindexed
	for i := int64(1); i <= 10; i++ {
		_ = s.Build(mk("T", i, i, float64(i)))
	}
	probe := mk("S", 1, 0, 5)
	// band predicate: T.v > S.v
	res := expr.Bin(expr.OpGt, expr.Col("T", "v"), expr.Col("S", "v"))
	got, err := s.Probe(probe, ProbeSpec{Residual: res})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 { // v in 6..10
		t.Fatalf("matches = %d, want 5", len(got))
	}
	if s.Stats().ScanProbes != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestIndexedProbeWithResidual(t *testing.T) {
	s := New("T", expr.Col("T", "k"))
	_ = s.Build(mk("T", 1, 7, 1))
	_ = s.Build(mk("T", 2, 7, 9))
	probe := mk("S", 1, 7, 5)
	res := expr.Bin(expr.OpGt, expr.Col("T", "v"), expr.Col("S", "v"))
	got, err := s.Probe(probe, ProbeSpec{KeyExpr: expr.Col("S", "k"), Residual: res})
	if err != nil || len(got) != 1 {
		t.Fatalf("got %d, %v", len(got), err)
	}
}

func TestProbeEmptySteM(t *testing.T) {
	s := New("T", expr.Col("T", "k"))
	got, err := s.Probe(mk("S", 1, 1, 1), ProbeSpec{KeyExpr: expr.Col("S", "k")})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestHashCollisionVerified(t *testing.T) {
	// Force all keys into one bucket by using a constant-hash scenario:
	// different int keys rarely collide, so instead verify via cross-kind
	// equality: Int(5) and Float(5.0) must match each other but not 6.
	s := New("T", expr.Col("T", "k"))
	_ = s.Build(mk("T", 1, 5, 1))
	_ = s.Build(mk("T", 2, 6, 1))
	ps := tuple.NewSchema(tuple.Column{Source: "S", Name: "k", Kind: tuple.KindFloat})
	probe := tuple.New(ps, tuple.Float(5.0))
	got, err := s.Probe(probe, ProbeSpec{KeyExpr: expr.Col("S", "k")})
	if err != nil || len(got) != 1 {
		t.Fatalf("cross-kind probe: %d, %v", len(got), err)
	}
}

func TestEvictBefore(t *testing.T) {
	s := New("T", expr.Col("T", "k"))
	for i := int64(1); i <= 10; i++ {
		_ = s.Build(mk("T", i, 1, float64(i)))
	}
	if n := s.EvictBefore(6); n != 5 {
		t.Fatalf("evicted %d, want 5", n)
	}
	if s.Size() != 5 {
		t.Fatalf("Size = %d", s.Size())
	}
	got, _ := s.Probe(mk("S", 99, 1, 0), ProbeSpec{KeyExpr: expr.Col("S", "k")})
	if len(got) != 5 {
		t.Fatalf("post-evict matches = %d", len(got))
	}
	for _, j := range got {
		vi, _ := j.Schema.ColumnIndex("T", "v")
		if j.Values[vi].F < 6 {
			t.Fatalf("evicted tuple matched: %v", j)
		}
	}
}

func TestBuildKeyError(t *testing.T) {
	s := New("T", expr.Col("T", "missing"))
	tp := mk("T", 1, 1, 1)
	if err := s.Build(tp); err == nil {
		t.Fatal("build with bad key succeeded")
	}
	if tp.Retained() || s.Size() != 0 {
		t.Fatalf("failed build kept the tuple: retained=%v size=%d", tp.Retained(), s.Size())
	}
}

func TestProbeKeyError(t *testing.T) {
	s := New("T", expr.Col("T", "k"))
	_ = s.Build(mk("T", 1, 1, 1))
	_, err := s.Probe(mk("S", 1, 1, 1), ProbeSpec{KeyExpr: expr.Col("S", "missing")})
	if err == nil {
		t.Fatal("probe with bad key succeeded")
	}
}

// Property: symmetric hash join via two SteMs equals nested-loop join.
func TestQuickSymmetricJoinEqualsNestedLoop(t *testing.T) {
	f := func(aKeys, bKeys []uint8) bool {
		if len(aKeys) > 40 {
			aKeys = aKeys[:40]
		}
		if len(bKeys) > 40 {
			bKeys = bKeys[:40]
		}
		sa := New("A", expr.Col("A", "k"))
		sb := New("B", expr.Col("B", "k"))
		var joined int
		// Interleave arrivals: evens from A, odds from B (symmetric join).
		maxLen := len(aKeys)
		if len(bKeys) > maxLen {
			maxLen = len(bKeys)
		}
		for i := 0; i < maxLen; i++ {
			if i < len(aKeys) {
				ta := mk("A", int64(i), int64(aKeys[i]%8), 0)
				_ = sa.Build(ta)
				m, err := sb.Probe(ta, ProbeSpec{KeyExpr: expr.Col("A", "k")})
				if err != nil {
					return false
				}
				joined += len(m)
			}
			if i < len(bKeys) {
				tb := mk("B", int64(i), int64(bKeys[i]%8), 0)
				_ = sb.Build(tb)
				m, err := sa.Probe(tb, ProbeSpec{KeyExpr: expr.Col("B", "k")})
				if err != nil {
					return false
				}
				joined += len(m)
			}
		}
		// Nested loop ground truth.
		want := 0
		for _, a := range aKeys {
			for _, b := range bKeys {
				if a%8 == b%8 {
					want++
				}
			}
		}
		return joined == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIndexedProbe(b *testing.B) {
	s := New("T", expr.Col("T", "k"))
	for i := int64(0); i < 10000; i++ {
		_ = s.Build(mk("T", i, i%100, float64(i)))
	}
	probe := mk("S", 0, 50, 0)
	spec := ProbeSpec{KeyExpr: expr.Col("S", "k")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Probe(probe, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanProbe(b *testing.B) {
	s := New("T", nil)
	for i := int64(0); i < 1000; i++ {
		_ = s.Build(mk("T", i, i%100, float64(i)))
	}
	probe := mk("S", 0, 50, 0)
	spec := ProbeSpec{Residual: expr.Bin(expr.OpEq, expr.Col("T", "k"), expr.Col("S", "k"))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Probe(probe, spec); err != nil {
			b.Fatal(err)
		}
	}
}
