package stem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// scanModel is the specification the ring and its chained index are held
// to: a slice, scanned end to end for every operation, joining the way
// the SteM did before it had either — Concat first, interpreter after.
type scanModel struct {
	rows  []*tuple.Tuple
	stats Stats
}

func (m *scanModel) evictBefore(seq int64) int {
	kept := m.rows[:0]
	for _, t := range m.rows {
		if t.TS.Seq >= seq {
			kept = append(kept, t)
		}
	}
	n := len(m.rows) - len(kept)
	m.rows = kept
	m.stats.Evicted += int64(n)
	return n
}

func (m *scanModel) probe(p *tuple.Tuple, keyed bool, residual expr.Expr, maxArrival int64) (out []string, failed bool) {
	m.stats.Probes++
	for _, t := range m.rows {
		if maxArrival > 0 && t.Arrival >= maxArrival {
			continue
		}
		if keyed && !tuple.Equal(p.Values[0], t.Values[0]) {
			continue
		}
		j := tuple.Concat(p, t)
		if residual != nil {
			ok, err := expr.Truthy(residual, j)
			if err != nil {
				return nil, true
			}
			if !ok {
				continue
			}
		}
		out = append(out, j.String())
	}
	m.stats.Matches += int64(len(out))
	return out, false
}

var (
	modelStored = schemaFor("T")
	modelProbe  = schemaFor("S")
	// Keys 1<<53 and 1<<53+1 hash alike (the hash goes through float64)
	// but compare unequal; NULL is a key like any other.
	modelKeys = []tuple.Value{
		tuple.Int(0), tuple.Int(1), tuple.Int(2), tuple.Int(3),
		tuple.Int(1 << 53), tuple.Int(1<<53 + 1), tuple.Float(3), tuple.Null(),
	}
	modelKey = expr.Col("S", "k")
	// No residual; one comparison; a conjunction of two; and a shape that
	// is not a conjunction of comparisons, which the SteM interprets.
	modelResiduals = []expr.Expr{
		nil,
		expr.Bin(expr.OpGt, expr.Col("T", "v"), expr.Col("S", "v")),
		expr.Bin(expr.OpAnd,
			expr.Bin(expr.OpGe, expr.Col("T", "v"), expr.Col("S", "v")),
			expr.Bin(expr.OpLe, expr.Col("S", "k"), expr.Col("T", "k"))),
		expr.Not(expr.Bin(expr.OpLe, expr.Col("T", "v"), expr.Col("S", "v"))),
	}
)

// runModel decodes ops as a program of builds (a fifth of them late in
// Seq), evictions and indexed / scan probes, runs it against a SteM and
// the scan model, and fails on the first disagreement.
func runModel(t *testing.T, indexed bool, ops []byte) {
	t.Helper()
	var keyExpr expr.Expr
	if indexed {
		keyExpr = expr.Col("T", "k")
	}
	s, m := New("T", keyExpr), &scanModel{}
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	value := func(b byte) tuple.Value {
		if b == 255 {
			return tuple.String("x") // makes the residual a type error
		}
		return tuple.Float(float64(b % 8))
	}
	var seq, arrival int64
	for step := 0; len(ops) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1, 2, 3:
			seq++
			tp := tuple.New(modelStored, modelKeys[next()%8], value(next()))
			tp.TS.Seq = seq
			if op%8 == 3 {
				tp.TS.Seq -= int64(next() % 8)
			}
			arrival++
			tp.Arrival = arrival
			if err := s.Build(tp); err != nil {
				t.Fatalf("step %d: build: %v", step, err)
			}
			m.rows = append(m.rows, tp)
			m.stats.Builds++
		case 4:
			h := seq - int64(next()%16)
			if got, want := s.EvictBefore(h), m.evictBefore(h); got != want {
				t.Fatalf("step %d: EvictBefore(%d) = %d, model %d", step, h, got, want)
			}
		default:
			p := tuple.New(modelProbe, modelKeys[next()%8], value(next()))
			spec := ProbeSpec{}
			if op%8 != 7 {
				spec.KeyExpr = modelKey
			}
			spec.Residual = modelResiduals[op>>3&3]
			if op&32 != 0 {
				spec.MaxArrival = arrival - int64(next()%8)
			}
			keyed := spec.KeyExpr != nil && indexed
			if keyed {
				m.stats.IndexProbes++
			} else {
				m.stats.ScanProbes++
			}
			want, failed := m.probe(p, keyed, spec.Residual, spec.MaxArrival)
			res, err := s.Probe(p, spec)
			if failed != (err != nil) {
				t.Fatalf("step %d: probe error = %v, model failed = %v", step, err, failed)
			}
			if failed {
				continue
			}
			got := make([]string, len(res))
			for i, j := range res {
				got[i] = j.String()
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("step %d: probe %v spec %+v: %d matches, model %d", step, p, spec, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: probe %v: match %q, model %q", step, p, got[i], want[i])
				}
			}
		}
		if s.Size() != len(m.rows) {
			t.Fatalf("step %d: Size = %d, model %d", step, s.Size(), len(m.rows))
		}
		if s.Stats() != m.stats {
			t.Fatalf("step %d: Stats = %+v, model %+v", step, s.Stats(), m.stats)
		}
	}
	// Draining returns the ring and the index to empty together.
	s.EvictBefore(seq + 1)
	if s.Size() != 0 || len(s.index) != 0 {
		t.Fatalf("drained SteM: size %d, %d chains", s.Size(), len(s.index))
	}
}

func TestSteMAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		runModel(t, true, ops)
		runModel(t, false, ops)
	}
}

func FuzzSteMAgainstScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 3, 1, 4, 2, 5, 1, 0, 13, 1, 0, 4, 0, 7, 1, 1})
	f.Add([]byte{0, 4, 1, 0, 5, 1, 29, 4, 0, 3, 3, 4, 1, 7, 21, 5, 255, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runModel(t, true, ops)
		runModel(t, false, ops)
	})
}

// windowJoin is the benchmark ladder's window-join rung without the
// harness: a 1000-row window of (id, sym, price) over 64 symbols, nine
// builds (each moving the window edge) per probe, and a residual that
// rejects nearly every candidate the key lets through.
type windowJoin struct {
	s     *SteM
	spec  ProbeSpec
	probe *tuple.Tuple
	syms  [64]tuple.Value
	seq   int64
}

var (
	quoteSchema = tuple.NewSchema(
		tuple.Column{Source: "a", Name: "id", Kind: tuple.KindInt},
		tuple.Column{Source: "a", Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: "a", Name: "price", Kind: tuple.KindFloat},
	)
	newsSchema = tuple.NewSchema(
		tuple.Column{Source: "b", Name: "id", Kind: tuple.KindInt},
		tuple.Column{Source: "b", Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: "b", Name: "score", Kind: tuple.KindFloat},
	)
)

func newWindowJoin() *windowJoin {
	w := &windowJoin{
		s: New("a", expr.Col("a", "sym")),
		spec: ProbeSpec{KeyExpr: expr.Col("b", "sym"),
			Residual: expr.Bin(expr.OpGt, expr.Col("a", "price"), expr.Col("b", "score"))},
	}
	for i := range w.syms {
		w.syms[i] = tuple.String(fmt.Sprintf("S%02d", i))
	}
	w.probe = tuple.New(newsSchema, tuple.Int(0), w.syms[0], tuple.Float(98))
	for i := 0; i < 2000; i++ {
		w.build()
	}
	return w
}

func (w *windowJoin) build() {
	w.seq++
	t := tuple.New(quoteSchema, tuple.Int(w.seq), w.syms[w.seq%64], tuple.Float(float64(w.seq%100)))
	t.TS.Seq = w.seq
	if err := w.s.Build(t); err != nil {
		panic(err)
	}
	w.s.EvictBefore(w.seq - 1000 + 1)
}

func TestEvictAndRejectedProbeDoNotAllocate(t *testing.T) {
	w := newWindowJoin()
	w.probe.Values[2] = tuple.Float(100) // no stored price is higher: no survivor
	if _, err := w.s.Probe(w.probe, w.spec); err != nil {
		t.Fatal(err) // also compiles the plan
	}
	if n := testing.AllocsPerRun(100, func() {
		if res, _ := w.s.Probe(w.probe, w.spec); len(res) != 0 {
			t.Fatal("probe matched")
		}
	}); n != 0 {
		t.Errorf("indexed probe with no survivor: %v allocs", n)
	}
	h := w.seq - 1000
	if n := testing.AllocsPerRun(100, func() {
		h += 5
		if w.s.EvictBefore(h) == 0 {
			t.Fatal("nothing evicted")
		}
	}); n != 0 {
		t.Errorf("EvictBefore: %v allocs", n)
	}
}

func BenchmarkWindowJoinSteM(b *testing.B) {
	w := newWindowJoin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 != 9 {
			w.build()
			continue
		}
		w.probe.Values[1] = w.syms[i%64]
		res, err := w.s.Probe(w.probe, w.spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range res {
			tuple.Recycle(j)
		}
	}
}
