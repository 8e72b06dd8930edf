package experiments

import (
	"fmt"
	"time"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// E12CompiledExpr measures the compiled columnar hot path against the
// tree-walking interpreter on the two workloads the bytecode exists
// for: the E1 shared-engine filter workload (Q=100 queries over one
// stock stream) and the E2 grouped-filter probe. The interpreted
// batch=1 row is the pre-compilation engine default, so its per-tuple
// cost is the historical baseline; batching alone (row 2) isolates the
// routing amortization from the bytecode win (row 3).
func E12CompiledExpr(scale int) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Compiled columnar expressions vs tree-walking interpreter",
		Claim:   "compiling predicates to register bytecode over columnar batches cuts shared-filter per-tuple cost well below the per-tuple interpreted baseline, with zero steady-state allocations (TCQ §4.2 hot path)",
		Columns: []string{"workload", "config", "per-tuple", "speedup"},
	}

	nTuples := 2000 * scale
	rows := workload.Stocks{Seed: 1}.Rows(nTuples)
	syms := workload.DefaultSymbols
	const q = 100

	mkQuery := func(i int) *cacq.Query {
		return &cacq.Query{
			ID:      i,
			Sources: []string{"ClosingStockPrices"},
			Where: expr.Bin(expr.OpAnd,
				expr.Bin(expr.OpEq, expr.Col("", "stockSymbol"), expr.Lit(tuple.String(syms[i%len(syms)]))),
				expr.Bin(expr.OpGt, expr.Col("", "closingPrice"), expr.Lit(tuple.Float(float64(i%120))))),
		}
	}

	// One run of the E1-style shared engine under a given expression
	// path and batch size; delivered counts must agree across configs.
	runShared := func(compiled bool, batch int) (float64, int64) {
		var delivered int64
		eng := cacq.NewEngine(eddy.NewLottery(1), func(int, *tuple.Tuple) { delivered++ })
		eng.SetCompiled(compiled)
		eng.Eddy().BatchSize = batch
		for i := 0; i < q; i++ {
			if err := eng.AddQuery(mkQuery(i)); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		for _, r := range rows {
			_ = eng.Push(r.Clone())
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(nTuples), delivered
	}

	interp1, d1 := runShared(false, 1)
	interpB, d2 := runShared(false, 256)
	compB, d3 := runShared(true, 256)
	if d1 != d2 || d1 != d3 {
		panic(fmt.Sprintf("E12: delivered diverge: %d/%d/%d", d1, d2, d3))
	}
	e1 := fmt.Sprintf("E1-style Q=%d", q)
	t.Rows = append(t.Rows,
		[]string{e1, "interpreted/batch=1", ns(interp1), f2(1)},
		[]string{e1, "interpreted/batch=256", ns(interpB), f2(interp1 / interpB)},
		[]string{e1, "compiled/batch=256", ns(compB), f2(interp1 / compB)},
	)

	// E2-style grouped-filter probes: the same factor set probed per
	// tuple (Process) vs per batch (ProcessVec feeding the key column).
	const preds = 1000
	probes := 5000 * scale
	vals := workload.UniformInts(probes, 10000, 3)
	mkGF := func() *operator.GroupedFilter {
		g := operator.NewGroupedFilter(expr.Col("", "closingPrice"))
		for i := 0; i < preds; i++ {
			op := []expr.Op{expr.OpGt, expr.OpLt, expr.OpGe, expr.OpLe}[i%4]
			f := expr.RangeFactor{
				Col: expr.Col("", "closingPrice"),
				Op:  op,
				Val: tuple.Float(float64((i * 37) % 10000)),
			}
			if err := g.AddFactor(i, f); err != nil {
				panic(err)
			}
		}
		return g
	}
	schema := tuple.NewSchema(tuple.Column{Name: "closingPrice", Kind: tuple.KindFloat})
	arm := func(ts []*tuple.Tuple) {
		for _, tp := range ts {
			tp.Lin = &tuple.Lineage{}
			for i := 0; i < preds; i++ {
				tp.Lineage().Queries.Add(i)
			}
		}
	}
	batchTs := make([]*tuple.Tuple, 256)

	// Lineage arming (1000 bits per tuple) is harness setup, not probe
	// work: both passes time only the Process/ProcessVec calls.
	rowG := mkGF()
	var rowKept int64
	var rowTotal time.Duration
	for at := 0; at < probes; at += len(batchTs) {
		n := min(len(batchTs), probes-at)
		for i := 0; i < n; i++ {
			batchTs[i] = tuple.New(schema, tuple.Float(float64(vals[at+i])))
		}
		arm(batchTs[:n])
		start := time.Now()
		for _, tp := range batchTs[:n] {
			out, err := rowG.Process(tp, func(*tuple.Tuple) {})
			if err != nil {
				panic(err)
			}
			if out == operator.Pass {
				rowKept++
			}
		}
		rowTotal += time.Since(start)
	}
	rowNs := float64(rowTotal.Nanoseconds()) / float64(probes)

	vecG := mkGF()
	var cb tuple.ColBatch
	keep := make([]bool, len(batchTs))
	var vecKept int64
	var vecTotal time.Duration
	for at := 0; at < probes; at += len(batchTs) {
		n := min(len(batchTs), probes-at)
		for i := 0; i < n; i++ {
			batchTs[i] = tuple.New(schema, tuple.Float(float64(vals[at+i])))
		}
		arm(batchTs[:n])
		start := time.Now()
		if !cb.Load(batchTs[:n]) {
			panic("E12: ColBatch load failed")
		}
		if !vecG.ProcessVec(&cb, batchTs[:n], keep[:n]) {
			panic("E12: ProcessVec declined")
		}
		vecTotal += time.Since(start)
		for i := 0; i < n; i++ {
			if keep[i] {
				vecKept++
			}
		}
	}
	vecNs := float64(vecTotal.Nanoseconds()) / float64(probes)
	if rowKept != vecKept {
		panic(fmt.Sprintf("E12: gfilter kept diverge: row %d vs vec %d", rowKept, vecKept))
	}
	e2 := fmt.Sprintf("E2-style P=%d", preds)
	t.Rows = append(t.Rows,
		[]string{e2, "row probes", ns(rowNs), f2(1)},
		[]string{e2, "vec probes", ns(vecNs), f2(rowNs / vecNs)},
	)

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d stock tuples, %d grouped-filter probes per configuration; delivered/kept counts verified identical across paths", nTuples, probes),
		"interpreted/batch=1 is the pre-compilation engine default; executor.Options.CompiledExpr = ExprInterpreted reproduces it")
	return t
}
