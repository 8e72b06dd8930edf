// Benchmarks: one testing.B target per experiment of DESIGN.md §4
// (E1–E4, E6–E10, E12; E5's claim is asserted by TestE5Invariants in
// internal/experiments). Each bench exercises the experiment's hot path
// per iteration; the full tables with parameter sweeps are regenerated
// by `go run ./cmd/tcqbench` and recorded in EXPERIMENTS.md.
package telegraphcq

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/cluster"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
	"telegraphcq/internal/workload"
)

// --------------------------------------------------------------- E1

func benchSharedEngine(b *testing.B, queries int, shared bool) {
	b.Helper()
	rows := workload.Stocks{Seed: 1}.Rows(1024)
	syms := workload.DefaultSymbols
	mkQuery := func(i int) *cacq.Query {
		return &cacq.Query{
			ID:      i,
			Sources: []string{"ClosingStockPrices"},
			Where: expr.Bin(expr.OpAnd,
				expr.Bin(expr.OpEq, expr.Col("", "stockSymbol"), expr.Lit(tuple.String(syms[i%len(syms)]))),
				expr.Bin(expr.OpGt, expr.Col("", "closingPrice"), expr.Lit(tuple.Float(float64(i%120))))),
		}
	}
	var engines []*cacq.Engine
	if shared {
		e := cacq.NewEngine(eddy.NewLottery(1), func(int, *tuple.Tuple) {})
		for i := 0; i < queries; i++ {
			if err := e.AddQuery(mkQuery(i)); err != nil {
				b.Fatal(err)
			}
		}
		engines = []*cacq.Engine{e}
	} else {
		for i := 0; i < queries; i++ {
			e := cacq.NewEngine(eddy.NewLottery(int64(i)+1), func(int, *tuple.Tuple) {})
			if err := e.AddQuery(mkQuery(i)); err != nil {
				b.Fatal(err)
			}
			engines = append(engines, e)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows[i%len(rows)]
		for _, e := range engines {
			if err := e.Push(r.Clone()); err != nil {
				b.Fatal(err)
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1SharedVsUnshared(b *testing.B) {
	for _, q := range []int{10, 100} {
		b.Run(fmt.Sprintf("shared/queries=%d", q), func(b *testing.B) { benchSharedEngine(b, q, true) })
		b.Run(fmt.Sprintf("unshared/queries=%d", q), func(b *testing.B) { benchSharedEngine(b, q, false) })
	}
}

// --------------------------------------------------------------- E2

func BenchmarkE2GroupedFilter(b *testing.B) {
	const preds = 1000
	g := operator.NewGroupedFilter(expr.Col("", "price"))
	factors := make([]expr.RangeFactor, preds)
	universe := bitset.New(preds)
	for i := 0; i < preds; i++ {
		factors[i] = expr.RangeFactor{
			Col: expr.Col("", "price"),
			Op:  []expr.Op{expr.OpGt, expr.OpLt, expr.OpGe, expr.OpLe}[i%4],
			Val: tuple.Float(float64((i * 37) % 10000)),
		}
		if err := g.AddFactor(i, factors[i]); err != nil {
			b.Fatal(err)
		}
		universe.Add(i)
	}
	b.Run("grouped", func(b *testing.B) {
		out := bitset.New(preds)
		for i := 0; i < b.N; i++ {
			if err := g.MatchQueriesInto(tuple.Float(float64(i%10000)), universe, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := tuple.Float(float64(i % 10000))
			for j := range factors {
				factors[j].Matches(v)
			}
		}
	})
}

// --------------------------------------------------------------- E3

func benchEddyPolicy(b *testing.B, mk func() eddy.Policy) {
	b.Helper()
	fa := operator.NewFilter("A", expr.Bin(expr.OpLt, expr.Col("S", "a"), expr.Lit(tuple.Float(10))))
	fb := operator.NewFilter("B", expr.Bin(expr.OpLt, expr.Col("S", "b"), expr.Lit(tuple.Float(10))))
	e := eddy.New([]operator.Module{fa, fb}, mk(), func(*tuple.Tuple) {})
	schema := tuple.NewSchema(
		tuple.Column{Source: "S", Name: "a", Kind: tuple.KindFloat},
		tuple.Column{Source: "S", Name: "b", Kind: tuple.KindFloat},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, bb := float64(i%100), float64(i%10)
		if i%2 == 0 {
			a, bb = bb, a // alternating phases stress adaptation
		}
		t := tuple.New(schema, tuple.Float(a), tuple.Float(bb))
		t.TS = tuple.Timestamp{Seq: int64(i) + 1}
		if err := e.Admit(t); err != nil {
			b.Fatal(err)
		}
		if err := e.RunUntilIdle(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3EddyVsStatic(b *testing.B) {
	b.Run("static", func(b *testing.B) { benchEddyPolicy(b, func() eddy.Policy { return eddy.NewFixed([]int{0, 1}) }) })
	b.Run("random", func(b *testing.B) { benchEddyPolicy(b, func() eddy.Policy { return eddy.NewRandom(1) }) })
	b.Run("lottery", func(b *testing.B) { benchEddyPolicy(b, func() eddy.Policy { return eddy.NewLottery(1) }) })
}

// --------------------------------------------------------------- E4

func BenchmarkE4HybridJoin(b *testing.B) {
	tSchema := tuple.NewSchema(
		tuple.Column{Source: "T", Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: "T", Name: "rating", Kind: tuple.KindInt},
	)
	sSchema := tuple.NewSchema(
		tuple.Column{Source: "S", Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: "S", Name: "v", Kind: tuple.KindFloat},
	)
	jf := expr.JoinFactor{Op: expr.OpEq, Left: expr.Col("S", "sym"), Right: expr.Col("T", "sym")}
	mk := func(indexed bool) *operator.StemModule {
		var key expr.Expr
		var keyCol *expr.ColumnRef
		if indexed {
			key = expr.Col("T", "sym")
			keyCol = expr.Col("T", "sym")
		}
		sm := operator.NewStemModule("T", stem.New("T", key), []expr.JoinFactor{jf}, keyCol)
		sm.SetGroup("joinT")
		for i, s := range workload.DefaultSymbols {
			if err := sm.SteM().Build(tuple.New(tSchema, tuple.String(s), tuple.Int(int64(i)))); err != nil {
				b.Fatal(err)
			}
		}
		return sm
	}
	idx, scan := mk(true), mk(false)
	pol := eddy.NewLottery(5)
	pol.CostAware = true
	pol.Greedy = true
	e := eddy.New([]operator.Module{idx, scan}, pol, func(*tuple.Tuple) {})
	syms := workload.DefaultSymbols
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tuple.New(sSchema, tuple.String(syms[i%len(syms)]), tuple.Float(1))
		t.TS = tuple.Timestamp{Seq: int64(i) + 1}
		if err := e.Admit(t); err != nil {
			b.Fatal(err)
		}
		if err := e.RunUntilIdle(0); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- E6

// BenchmarkE6FluxRoute is the per-entry cost of the real exchange: one
// coordinator routing to four in-process workers over loopback, every
// entry framed once and written to its bucket's process pair.
func BenchmarkE6FluxRoute(b *testing.B) {
	quiet := func(string, ...any) {}
	cfg := cluster.Config{Buckets: 32, Heartbeat: 200 * time.Millisecond, Logf: quiet}
	for i := 0; i < 4; i++ {
		w := cluster.NewWorker()
		w.Logf = quiet
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		cfg.Workers = append(cfg.Workers, addr)
	}
	c, err := cluster.NewCoordinator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rows := workload.Flows{Hosts: 64, Seed: 4}.Rows(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows[i%len(rows)]
		if err := c.Route(r.Values[0].S, r.Values[3].F); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			if err := c.Barrier(30 * time.Second); err != nil { // keep pend lists bounded
				b.Fatal(err)
			}
		}
	}
	if err := c.Barrier(30 * time.Second); err != nil {
		b.Fatal(err)
	}
}

// --------------------------------------------------------------- E7

func benchWindowAgg(b *testing.B, strat operator.Strategy, width int64) {
	b.Helper()
	spec := window.Sliding("ClosingStockPrices", width, 100, 0)
	agg, err := operator.NewWindowAgg("agg", "ClosingStockPrices", spec, 1,
		nil, []operator.AggSpec{{Kind: operator.AggMax, Arg: expr.Col("", "closingPrice")}}, strat)
	if err != nil {
		b.Fatal(err)
	}
	rows := workload.Stocks{Symbols: []string{"MSFT"}, Seed: 6}.Rows(65536)
	emit := func(*tuple.Tuple) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rows[i%len(rows)].Clone()
		r.TS.Seq = int64(i) + 1 // keep instants monotonic across wrap
		if _, err := agg.Process(r, emit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Windows(b *testing.B) {
	b.Run("sliding-max/recompute/width=1000", func(b *testing.B) { benchWindowAgg(b, operator.StrategyRecompute, 1000) })
	b.Run("sliding-max/deque/width=1000", func(b *testing.B) { benchWindowAgg(b, operator.StrategyDeque, 1000) })
	b.Run("sliding-max/recompute/width=10000", func(b *testing.B) { benchWindowAgg(b, operator.StrategyRecompute, 10000) })
	b.Run("sliding-max/deque/width=10000", func(b *testing.B) { benchWindowAgg(b, operator.StrategyDeque, 10000) })
}

// --------------------------------------------------------------- E8

func BenchmarkE8Fjords(b *testing.B) {
	b.Run("push-queue", func(b *testing.B) {
		q := fjord.NewPush[int](1024)
		for i := 0; i < b.N; i++ {
			q.TryEnqueue(i)
			q.TryDequeue()
		}
	})
	b.Run("pull-queue", func(b *testing.B) {
		q := fjord.NewPush[int](1024)
		for i := 0; i < b.N; i++ {
			_ = q.Enqueue(i)
			_, _ = q.Dequeue()
		}
	})
}

// ------------------------------------------------- Fjord queue kinds

// benchQueueTransfer moves b.N tuples from a producer goroutine to the
// consuming benchmark goroutine through q, `batch` at a time. This is
// the EO-to-subscription edge in isolation: the number reported is the
// per-tuple cost of crossing one Fjord.
func benchQueueTransfer(b *testing.B, q fjord.Queue[*tuple.Tuple], batch int) {
	b.Helper()
	schema := tuple.NewSchema(tuple.Column{Source: "S", Name: "v", Kind: tuple.KindFloat})
	t := tuple.New(schema, tuple.Float(1))
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		if batch == 1 {
			for i := 0; i < b.N; i++ {
				for !q.TryEnqueue(t) {
					runtime.Gosched()
				}
			}
			return
		}
		buf := make([]*tuple.Tuple, batch)
		for i := range buf {
			buf[i] = t
		}
		sent := 0
		for sent < b.N {
			n := len(buf)
			if remaining := b.N - sent; n > remaining {
				n = remaining
			}
			k := q.TryEnqueueBatch(buf[:n])
			if k == 0 {
				runtime.Gosched()
			}
			sent += k
		}
	}()
	if batch == 1 {
		for i := 0; i < b.N; i++ {
			for {
				if _, ok := q.TryDequeue(); ok {
					break
				}
				runtime.Gosched()
			}
		}
	} else {
		buf := make([]*tuple.Tuple, batch)
		got := 0
		for got < b.N {
			n := q.DequeueBatch(buf)
			if n == 0 {
				runtime.Gosched()
			}
			got += n
		}
	}
}

// BenchmarkFjordSPSC measures the lock-free single-producer ring.
func BenchmarkFjordSPSC(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchQueueTransfer(b, fjord.NewSPSC[*tuple.Tuple](4096), 1) })
	b.Run("batch=64", func(b *testing.B) { benchQueueTransfer(b, fjord.NewSPSC[*tuple.Tuple](4096), 64) })
}

// BenchmarkFjordMutex measures the mutex push queue on the same edge
// (the fallback for multi-writer Fjords).
func BenchmarkFjordMutex(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchQueueTransfer(b, fjord.NewPush[*tuple.Tuple](4096), 1) })
	b.Run("batch=64", func(b *testing.B) { benchQueueTransfer(b, fjord.NewPush[*tuple.Tuple](4096), 64) })
}

// --------------------------------------------------------------- E9

func benchBatching(b *testing.B, batch int) {
	b.Helper()
	eng := cacq.NewEngine(eddy.NewLottery(3), func(int, *tuple.Tuple) {})
	eng.Eddy().BatchSize = batch
	err := eng.AddQuery(&cacq.Query{
		ID: 0, Sources: []string{"S"},
		Where: expr.Bin(expr.OpLt, expr.Col("", "a"), expr.Lit(tuple.Float(10))),
	})
	if err != nil {
		b.Fatal(err)
	}
	schema := tuple.NewSchema(tuple.Column{Source: "S", Name: "a", Kind: tuple.KindFloat})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tuple.New(schema, tuple.Float(float64(i%100)))
		t.TS = tuple.Timestamp{Seq: int64(i) + 1}
		if err := eng.Push(t); err != nil {
			b.Fatal(err)
		}
		if i%batch == batch-1 {
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	_ = eng.Run()
}

func BenchmarkE9Batching(b *testing.B) {
	for _, batch := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) { benchBatching(b, batch) })
	}
}

// --------------------------------------------------------------- E10

func benchExecutorMode(b *testing.B, mode executor.ClassMode) {
	b.Helper()
	cat := catalog.New()
	const streams = 4
	for s := 0; s < streams; s++ {
		if _, err := cat.CreateStream(fmt.Sprintf("s%d", s),
			[]tuple.Column{{Name: "v", Kind: tuple.KindFloat}}, false); err != nil {
			b.Fatal(err)
		}
	}
	x := executor.New(cat, executor.Options{Mode: mode, QueueCap: 1 << 16})
	defer x.Close()
	for s := 0; s < streams; s++ {
		for q := 0; q < 4; q++ {
			stmt, err := sql.Parse(fmt.Sprintf(`SELECT v FROM s%d WHERE v > %d`, s, q*20))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := x.Submit(stmt.(*sql.Select)); err != nil {
				b.Fatal(err)
			}
		}
	}
	vals := []tuple.Value{tuple.Float(50)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Push(fmt.Sprintf("s%d", i%streams), vals); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			if err := x.Barrier(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	_ = x.Barrier()
}

func BenchmarkE10Executor(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchExecutorMode(b, executor.ClassSingle) })
	b.Run("footprint", func(b *testing.B) { benchExecutorMode(b, executor.ClassByFootprint) })
	b.Run("per-query", func(b *testing.B) { benchExecutorMode(b, executor.ClassPerQuery) })
}

// --------------------------------------------------------------- E12

// benchE12Expr drives the E1-style Q=100 shared-filter workload under
// one expression path / batch size pair (the E12 matrix).
func benchE12Expr(b *testing.B, compiled bool, batch int) {
	b.Helper()
	rows := workload.Stocks{Seed: 1}.Rows(1024)
	syms := workload.DefaultSymbols
	e := cacq.NewEngine(eddy.NewLottery(1), func(int, *tuple.Tuple) {})
	e.SetCompiled(compiled)
	e.Eddy().BatchSize = batch
	for i := 0; i < 100; i++ {
		q := &cacq.Query{
			ID:      i,
			Sources: []string{"ClosingStockPrices"},
			Where: expr.Bin(expr.OpAnd,
				expr.Bin(expr.OpEq, expr.Col("", "stockSymbol"), expr.Lit(tuple.String(syms[i%len(syms)]))),
				expr.Bin(expr.OpGt, expr.Col("", "closingPrice"), expr.Lit(tuple.Float(float64(i%120))))),
		}
		if err := e.AddQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Push(rows[i%len(rows)].Clone()); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	_ = e.Run()
}

func BenchmarkE12CompiledExpr(b *testing.B) {
	b.Run("interpreted-batch1", func(b *testing.B) { benchE12Expr(b, false, 1) })
	b.Run("interpreted-batch256", func(b *testing.B) { benchE12Expr(b, false, 256) })
	b.Run("compiled-batch256", func(b *testing.B) { benchE12Expr(b, true, 256) })
}

// -------------------------------------------------- end-to-end

// BenchmarkEndToEnd pushes through the full public API: parse → plan →
// shared eddy → grouped filter → delivery.
func BenchmarkEndToEnd(b *testing.B) {
	db := New(Options{})
	defer db.Close()
	db.MustExec(`CREATE STREAM quotes (sym string, price float)`)
	q, err := db.Submit(`SELECT sym, price FROM quotes WHERE price > 50`)
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			if _, ok := q.Next(); !ok {
				return
			}
		}
	}()
	vals := []Value{String("MSFT"), Float(75)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Push("quotes", vals...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = db.Barrier()
	_ = time.Now()
}
