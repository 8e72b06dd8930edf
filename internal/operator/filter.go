package operator

import (
	"telegraphcq/internal/expr"
	"telegraphcq/internal/expr/prog"
	"telegraphcq/internal/tuple"
)

// Filter applies one boolean predicate and drops tuples that fail it —
// the "Select" module of Figure 1.
//
// By default the predicate is compiled to bytecode per batch schema
// (see internal/expr/prog); whole batches are then filtered through a
// selection vector in ProcessVec. The tree-walking interpreter remains
// the reference: uncompilable predicates and any compiled-path error
// fall back to it, so semantics cannot diverge.
type Filter struct {
	name     string
	pred     expr.Expr
	stats    Stats
	compiled *prog.PredCache
	sel      []int32 // ProcessVec selection scratch
}

// NewFilter builds a filter module (compiled evaluation on).
func NewFilter(name string, pred expr.Expr) *Filter {
	return &Filter{name: name, pred: pred, compiled: prog.NewPredCache(pred)}
}

// Name implements Module.
func (f *Filter) Name() string { return f.name }

// Predicate returns the filter's predicate expression.
func (f *Filter) Predicate() expr.Expr { return f.pred }

// SetPredicate swaps the predicate at runtime (selectivity-drift
// experiments change predicates mid-stream).
func (f *Filter) SetPredicate(p expr.Expr) {
	f.pred = p
	if f.compiled != nil {
		f.compiled = prog.NewPredCache(p)
	}
}

// SetCompiled toggles the compiled bytecode path (on by default; the
// oracle's interpreted sweep and E12's baseline turn it off).
func (f *Filter) SetCompiled(on bool) {
	if on {
		f.compiled = prog.NewPredCache(f.pred)
	} else {
		f.compiled = nil
	}
}

// Interested implements Module: a filter applies to any tuple carrying
// the columns it references; evaluation errors on unrelated tuples are
// prevented by the planner, which scopes filters to their stream.
func (f *Filter) Interested(t *tuple.Tuple) bool {
	for _, c := range expr.Columns(f.pred, nil) {
		if _, err := c.Resolve(t.Schema); err != nil {
			return false
		}
	}
	return true
}

// Process implements Module.
func (f *Filter) Process(t *tuple.Tuple, _ Emit) (Outcome, error) {
	f.stats.In++
	var ok bool
	var err error
	if f.compiled != nil {
		ok, err = f.compiled.Truthy(t)
	} else {
		ok, err = expr.Truthy(f.pred, t)
	}
	if err != nil {
		return Drop, err
	}
	if !ok {
		f.stats.Dropped++
		return Drop, nil
	}
	f.stats.Out++
	return Pass, nil
}

// ProcessVec implements VecModule: one compiled pass over the batch,
// narrowing a selection vector instead of branching per tuple.
func (f *Filter) ProcessVec(cb *tuple.ColBatch, ts []*tuple.Tuple, keep []bool) bool {
	if f.compiled == nil {
		return false
	}
	p := f.compiled.For(cb.Schema())
	if p == nil {
		return false
	}
	n := cb.Len()
	if cap(f.sel) < n {
		f.sel = make([]int32, n)
	}
	sel := f.sel[:n]
	for i := range sel {
		sel[i] = int32(i)
	}
	live, err := p.Select(cb, sel)
	if err != nil {
		return false // replay through the interpreter
	}
	for i := 0; i < n; i++ {
		keep[i] = false
	}
	for _, l := range live {
		keep[l] = true
	}
	f.stats.In += int64(n)
	f.stats.Dropped += int64(n - len(live))
	f.stats.Out += int64(len(live))
	return true
}

// ModuleStats implements StatsProvider.
func (f *Filter) ModuleStats() Stats { return f.stats }
