package operator

import (
	"telegraphcq/internal/expr"
	"telegraphcq/internal/expr/prog"
	"telegraphcq/internal/tuple"
)

// Project evaluates a list of output expressions, producing result tuples
// with a fixed schema. It replaces the routed tuple in place of emitting:
// the projected tuple continues through the dataflow. Output expressions
// are compiled per input schema by default, with per-expression
// interpreter fallback (see internal/expr/prog).
type Project struct {
	name     string
	exprs    []expr.Expr
	out      *tuple.Schema
	stats    Stats
	compiled *prog.ProjCache
}

// NewProject builds a projection. Column names come from names (same
// length as exprs); empty entries derive a name from the expression.
func NewProject(name string, exprs []expr.Expr, names []string) *Project {
	cols := make([]tuple.Column, len(exprs))
	for i, e := range exprs {
		n := ""
		if i < len(names) {
			n = names[i]
		}
		if n == "" {
			if c, ok := e.(*expr.ColumnRef); ok {
				n = c.Name
			} else {
				n = e.String()
			}
		}
		cols[i] = tuple.Column{Source: name, Name: n, Kind: tuple.KindNull}
	}
	return &Project{
		name: name, exprs: exprs, out: tuple.NewSchema(cols...),
		compiled: prog.NewProjCache(exprs),
	}
}

// Name implements Module.
func (p *Project) Name() string { return p.name }

// SetCompiled toggles the compiled bytecode path (on by default).
func (p *Project) SetCompiled(on bool) {
	if on {
		p.compiled = prog.NewProjCache(p.exprs)
	} else {
		p.compiled = nil
	}
}

// OutputSchema returns the schema of projected tuples.
func (p *Project) OutputSchema() *tuple.Schema { return p.out }

// Interested implements Module.
func (p *Project) Interested(t *tuple.Tuple) bool {
	for _, e := range p.exprs {
		for _, c := range expr.Columns(e, nil) {
			if _, err := c.Resolve(t.Schema); err != nil {
				return false
			}
		}
	}
	return true
}

// Process implements Module: emits the projected tuple and consumes the
// input. Unlike Apply, the output keeps the input's query interest
// (CACQ output path).
func (p *Project) Process(t *tuple.Tuple, emit Emit) (Outcome, error) {
	out, err := p.Apply(t)
	if err != nil {
		return Drop, err
	}
	if t.Lin != nil {
		out.Lineage().Queries.CopyFrom(&t.Lin.Queries)
	}
	emit(out)
	return Consumed, nil
}

// ModuleStats implements StatsProvider.
func (p *Project) ModuleStats() Stats { return p.stats }

// Apply projects a single tuple directly (per-query output pipelines,
// reached after routing, where nothing reads lineage). The output comes
// from the tuple pool and carries no lineage; on error it goes back.
func (p *Project) Apply(t *tuple.Tuple) (*tuple.Tuple, error) {
	p.stats.In++
	out := tuple.NewPooled(p.out)
	out.Values = append(out.Values, make([]tuple.Value, len(p.exprs))...)
	out.TS = t.TS
	if p.compiled != nil {
		if err := p.compiled.EvalInto(t, out.Values); err != nil {
			tuple.Recycle(out)
			return nil, err
		}
	} else {
		for i, e := range p.exprs {
			v, err := e.Eval(t)
			if err != nil {
				tuple.Recycle(out)
				return nil, err
			}
			out.Values[i] = v
		}
	}
	p.stats.Out++
	return out, nil
}
