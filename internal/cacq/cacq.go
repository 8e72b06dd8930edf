// Package cacq implements Continuously Adaptive Continuous Queries
// (Madden et al., SIGMOD 2002; §3.1 of the TelegraphCQ paper): a single
// Eddy executes the "super-query" that is the disjunction of all
// registered client queries. Per-tuple lineage (the Queries bitmap)
// records which clients remain interested; grouped filters evaluate all
// single-variable boolean factors over an attribute at once; SteMs are
// shared across every query that joins the same pair of streams.
package cacq

import (
	"fmt"
	"math"
	"sort"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/expr/prog"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Query is one client continuous query registered with the engine.
type Query struct {
	// ID is the client-assigned identifier; it indexes lineage bitmaps
	// and must be small and unique within the engine.
	ID int
	// Select lists output expressions (ignored when Aggs is set).
	Select []expr.Expr
	// SelectNames optionally names the output columns.
	SelectNames []string
	// Where is the full predicate; the engine decomposes it into
	// grouped-filter factors, SteM join factors, and a residual.
	Where expr.Expr
	// Sources is the query footprint: the streams/tables it reads.
	Sources []string
	// Window, when set, scopes join state and drives aggregates.
	Window *window.Spec
	// GroupBy and Aggs turn the query into a windowed aggregate.
	GroupBy []*expr.ColumnRef
	Aggs    []operator.AggSpec
	// StartTime binds ST in the window's for-loop.
	StartTime int64
}

// Footprint returns the sorted source set (query-class key, §4.2.2).
func (q *Query) Footprint() []string {
	fp := append([]string(nil), q.Sources...)
	sort.Strings(fp)
	return fp
}

// Deliver receives one result row for one query.
type Deliver func(queryID int, row *tuple.Tuple)

// registered is the engine-side state of one query.
type registered struct {
	q        *Query
	fpKey    string
	residual expr.Expr
	// resid is the compiled form of residual (nil when interpreting).
	resid   *prog.PredCache
	project *operator.Project
	agg     *operator.WindowAgg
	// retention is the per-source tuple retention width implied by the
	// query's window (math.MaxInt64 = keep forever).
	retention map[string]int64
	// delivered counts result rows; touched only by the owning EO.
	delivered int64
}

// Engine is a shared CACQ dataflow over one query class.
type Engine struct {
	ed       *eddy.Eddy
	deliver  Deliver
	gfilters map[string]*operator.GroupedFilter // per qualified column
	stems    map[string]*operator.StemModule    // per source
	queries  map[int]*registered
	// interest maps source → bitset of query IDs reading it.
	interest map[string]*bitset.Set
	maxSeq   map[string]int64
	// width maps source → how many sequence numbers back its SteM must
	// reach: the widest retention over the join queries reading it
	// (math.MaxInt64 when one of them is unwindowed, absent when none
	// is). Only a query over two or more sources can probe a SteM, so
	// single-source queries never hold join state. Kept current by
	// AddQuery/RemoveQuery; Push only reads it.
	width map[string]int64

	// compiled selects the expression path: bytecode programs over
	// columnar batches (default), or the tree-walking interpreter
	// (the oracle's reference sweep, E12's baseline).
	compiled bool

	stats EngineStats
}

// EngineStats is a snapshot of engine-level activity.
type EngineStats struct {
	Pushed    int64
	Delivered int64
}

// QueryInfo is the introspectable state of one registered query.
type QueryInfo struct {
	ID        int
	Sources   []string
	Delivered int64
}

// Introspection is a snapshot of the engine's shared state: grouped
// filters, SteM modules, and registered queries. Like every engine
// accessor it must be taken on the owning Execution Object's thread;
// telemetry reaches it through the EO's control channel.
type Introspection struct {
	Filters []*operator.GroupedFilter
	Stems   []*operator.StemModule
	Queries []QueryInfo
}

// NewEngine builds an empty shared engine. policy nil defaults to a
// lottery with seed 1.
func NewEngine(policy eddy.Policy, deliver Deliver) *Engine {
	if policy == nil {
		policy = eddy.NewLottery(1)
	}
	e := &Engine{
		deliver:  deliver,
		gfilters: map[string]*operator.GroupedFilter{},
		stems:    map[string]*operator.StemModule{},
		queries:  map[int]*registered{},
		interest: map[string]*bitset.Set{},
		maxSeq:   map[string]int64{},
		width:    map[string]int64{},
		compiled: true,
	}
	e.ed = eddy.New(nil, policy, e.output)
	e.ed.Vectorized = true
	return e
}

// SetCompiled toggles compiled expression evaluation for the whole
// engine: the eddy's vectorized batch path plus compiled residual and
// projection evaluation. Queries already registered are retargeted.
func (e *Engine) SetCompiled(on bool) {
	e.compiled = on
	e.ed.Vectorized = on
	for _, r := range e.queries {
		if on && r.residual != nil {
			r.resid = prog.NewPredCache(r.residual)
		} else {
			r.resid = nil
		}
		if r.project != nil {
			r.project.SetCompiled(on)
		}
	}
}

// Eddy exposes the underlying router (stats, knobs).
func (e *Engine) Eddy() *eddy.Eddy { return e.ed }

// Stats returns a snapshot of engine counters. Must be called from the
// owning Execution Object's thread.
func (e *Engine) Stats() EngineStats { return e.stats }

// QueryCount returns the number of registered queries.
func (e *Engine) QueryCount() int { return len(e.queries) }

// Introspect builds a fresh snapshot of shared modules and registered
// queries. Must be called from the owning Execution Object's thread;
// telemetry scrapers reach it through the EO's control channel.
func (e *Engine) Introspect() *Introspection {
	in := &Introspection{}
	for _, g := range e.gfilters {
		in.Filters = append(in.Filters, g)
	}
	sort.Slice(in.Filters, func(i, j int) bool { return in.Filters[i].Name() < in.Filters[j].Name() })
	for _, sm := range e.stems {
		in.Stems = append(in.Stems, sm)
	}
	sort.Slice(in.Stems, func(i, j int) bool { return in.Stems[i].Name() < in.Stems[j].Name() })
	for id, r := range e.queries {
		in.Queries = append(in.Queries, QueryInfo{ID: id, Sources: r.q.Footprint(), Delivered: r.delivered})
	}
	sort.Slice(in.Queries, func(i, j int) bool { return in.Queries[i].ID < in.Queries[j].ID })
	return in
}

// AddQuery registers q: its boolean factors are folded into the shared
// grouped filters and SteMs, and its bit joins the interest set of each
// source it reads.
func (e *Engine) AddQuery(q *Query) error {
	if _, dup := e.queries[q.ID]; dup {
		return fmt.Errorf("cacq: duplicate query id %d", q.ID)
	}
	if len(q.Sources) == 0 {
		return fmt.Errorf("cacq: query %d has no sources", q.ID)
	}
	r := &registered{q: q, retention: map[string]int64{}}
	fp := q.Footprint()
	r.fpKey = fmt.Sprint(fp)

	// Decompose the predicate.
	var residuals []expr.Expr
	var joinFactors []expr.JoinFactor
	for _, factor := range expr.Conjuncts(q.Where) {
		if rf, ok := expr.AsRangeFactor(factor); ok {
			col := rf.Col
			if col.Source == "" && len(q.Sources) == 1 {
				// Qualify unqualified columns on single-source queries so
				// grouped filters shared across queries agree on the key.
				col = expr.Col(q.Sources[0], col.Name)
				rf.Col = col
			}
			g := e.gfilters[col.String()]
			if g == nil {
				g = operator.NewGroupedFilter(col)
				e.gfilters[col.String()] = g
				e.ed.AddModule(g)
			}
			if err := g.AddFactor(q.ID, rf); err != nil {
				return err
			}
			continue
		}
		if jf, ok := expr.AsJoinFactor(factor); ok && jf.Left.Source != "" &&
			jf.Right.Source != "" && jf.Left.Source != jf.Right.Source {
			joinFactors = append(joinFactors, jf)
			continue
		}
		residuals = append(residuals, factor)
	}
	r.residual = expr.Conjoin(residuals)
	if e.compiled && r.residual != nil {
		r.resid = prog.NewPredCache(r.residual)
	}

	// Join factors: ensure a SteM per joined source, register factors.
	for _, jf := range joinFactors {
		for _, side := range []*expr.ColumnRef{jf.Left, jf.Right} {
			sm := e.stems[side.Source]
			if sm == nil {
				var keyExpr expr.Expr
				var indexCol *expr.ColumnRef
				if jf.Op == expr.OpEq {
					keyExpr = expr.Col(side.Source, side.Name)
					indexCol = expr.Col(side.Source, side.Name)
				}
				sm = operator.NewStemModule(side.Source, stem.New(side.Source, keyExpr), nil, indexCol)
				e.stems[side.Source] = sm
				e.ed.AddModule(sm)
			}
			sm.AddFactor(q.ID, jf)
		}
	}

	// Source pairs no join factor links are Cartesian: without SteMs the
	// pair would never form and the query would silently emit nothing.
	// Give each side a match-all probe against the other.
	if len(q.Sources) > 1 {
		linked := map[string]bool{}
		for _, jf := range joinFactors {
			linked[jf.Left.Source+"\x00"+jf.Right.Source] = true
			linked[jf.Right.Source+"\x00"+jf.Left.Source] = true
		}
		for i, a := range q.Sources {
			for _, b := range q.Sources[i+1:] {
				if linked[a+"\x00"+b] {
					continue
				}
				for _, pair := range [][2]string{{a, b}, {b, a}} {
					sm := e.stems[pair[0]]
					if sm == nil {
						sm = operator.NewStemModule(pair[0], stem.New(pair[0], nil), nil, nil)
						e.stems[pair[0]] = sm
						e.ed.AddModule(sm)
					}
					sm.AddCross(q.ID, pair[1])
				}
			}
		}
	}

	// Window: retention per source and optional aggregate.
	if q.Window != nil {
		if err := q.Window.Validate(); err != nil {
			return fmt.Errorf("cacq: query %d window: %w", q.ID, err)
		}
		// Per-definition retention: the two sides of a band join may
		// declare different widths, and eviction must honor each.
		for _, d := range q.Window.Defs {
			r.retention[d.Stream] = q.Window.Retention(d.Stream)
		}
	}
	if len(q.Aggs) > 0 {
		if q.Window == nil || len(q.Sources) != 1 {
			return fmt.Errorf("cacq: query %d: aggregates need a window over a single stream", q.ID)
		}
		agg, err := operator.NewWindowAgg(fmt.Sprintf("q%d.agg", q.ID),
			q.Sources[0], q.Window, q.StartTime, q.GroupBy, q.Aggs, operator.StrategyAuto)
		if err != nil {
			return err
		}
		r.agg = agg
	} else if len(q.Select) > 0 {
		r.project = operator.NewProject(fmt.Sprintf("q%d", q.ID), q.Select, q.SelectNames)
		if !e.compiled {
			r.project.SetCompiled(false)
		}
	}

	for _, src := range q.Sources {
		in := e.interest[src]
		if in == nil {
			in = bitset.New(q.ID + 1)
			e.interest[src] = in
		}
		in.Add(q.ID)
	}
	e.queries[q.ID] = r
	e.widen(r)
	return nil
}

// widen raises the eviction width of every source a join query reads
// to what that query needs kept.
func (e *Engine) widen(r *registered) {
	if len(r.q.Sources) < 2 {
		return
	}
	for _, src := range r.q.Sources {
		w, ok := r.retention[src]
		if !ok {
			w = math.MaxInt64 // unwindowed: keep everything
		}
		if w > e.width[src] {
			e.width[src] = w
		}
	}
}

// RemoveQuery deregisters a query; its grouped-filter and join factors
// are deleted and its interest bits cleared. In-flight tuples may still
// carry its bit; delivery drops rows for unknown queries.
func (e *Engine) RemoveQuery(id int) {
	r, ok := e.queries[id]
	if !ok {
		return
	}
	delete(e.queries, id)
	for _, g := range e.gfilters {
		g.RemoveQuery(id)
	}
	for _, src := range r.q.Sources {
		if in := e.interest[src]; in != nil {
			in.Remove(id)
		}
	}
	if len(r.q.Sources) < 2 {
		return // held no join state
	}
	for _, src := range r.q.Sources {
		delete(e.width, src)
	}
	for _, o := range e.queries {
		e.widen(o)
	}
	for src, sm := range e.stems {
		sm.RemoveQuery(id)
		if !sm.Probed() {
			// The last join over src left: nothing can probe its SteM
			// again, and the module stops building into it.
			sm.EvictBefore(math.MaxInt64)
		} else {
			e.evict(src) // a narrower window may have become the widest
		}
	}
}

// Push admits one source tuple. The tuple's schema must name its source
// stream; its Queries lineage is initialized to the interest set.
func (e *Engine) Push(t *tuple.Tuple) error {
	if len(t.Schema.Sources) != 1 {
		return fmt.Errorf("cacq: pushed tuple must have exactly one source, got %v", t.Schema.Sources)
	}
	src := t.Schema.Sources[0]
	in := e.interest[src]
	if in == nil || in.Empty() {
		tuple.Recycle(t) // no query reads this stream; Push owns the tuple
		return nil
	}
	t.Lineage().Queries.CopyFrom(in)
	e.stats.Pushed++
	if t.TS.Seq > e.maxSeq[src] {
		e.maxSeq[src] = t.TS.Seq
	}
	if err := e.ed.Admit(t); err != nil {
		return err
	}
	e.evict(src)
	return nil
}

// AdvanceSeq raises a source's sequence high-water mark without pushing
// a tuple, applying any window eviction the advance implies. Sharded
// executors use it to keep every shard's eviction horizon on the global
// stream frontier: a shard only receives its hash class of a stream's
// tuples, so its own maxSeq would lag and stale SteM state would answer
// probes a single-shard engine would never match. Must be called from
// the engine's owning thread.
func (e *Engine) AdvanceSeq(src string, seq int64) {
	if seq <= e.maxSeq[src] {
		return
	}
	e.maxSeq[src] = seq
	e.evict(src)
}

// evict drops SteM state no window can reach anymore: tuples older than
// maxSeq − (widest retention over join queries reading src) + 1.
func (e *Engine) evict(src string) {
	sm := e.stems[src]
	if sm == nil {
		return
	}
	w := e.width[src]
	if w == 0 || w == math.MaxInt64 {
		return
	}
	if horizon := e.maxSeq[src] - w + 1; horizon > 0 {
		sm.EvictBefore(horizon)
	}
}

// Run processes all queued work to quiescence.
func (e *Engine) Run() error { return e.ed.RunUntilIdle(0) }

// Flush ends the input streams and drains all state.
func (e *Engine) Flush() error {
	if err := e.ed.Flush(); err != nil {
		return err
	}
	// Close per-query aggregates.
	for id, r := range e.queries {
		if r.agg != nil {
			if err := r.agg.Flush(e.aggEmit(id, r)); err != nil {
				return err
			}
		}
	}
	return nil
}

// output is the eddy's completion callback: demultiplex to queries.
// The engine owns the completed tuple here: consumers that keep it
// (raw deliveries, window buffers) retain it inside deliverTo, so the
// trailing Recycle returns only truly retired tuples to the pool.
func (e *Engine) output(t *tuple.Tuple) {
	if t.Lin == nil {
		tuple.Recycle(t)
		return
	}
	srcs := t.Schema.Sources
	t.Lin.Queries.ForEach(func(id int) bool {
		r, ok := e.queries[id]
		if !ok {
			return true // query left the system
		}
		// Exact footprint match: a query over {S} must not receive
		// {S,T} join tuples and vice versa.
		if !sameSources(srcs, r.q.Sources) {
			return true
		}
		e.deliverTo(id, r, t)
		return true
	})
	tuple.Recycle(t)
}

func sameSources(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (e *Engine) deliverTo(id int, r *registered, t *tuple.Tuple) {
	if r.residual != nil {
		var ok bool
		var err error
		if r.resid != nil {
			ok, err = r.resid.Truthy(t) // compiled, interpreter fallback
		} else {
			ok, err = expr.Truthy(r.residual, t)
		}
		if err != nil || !ok {
			return
		}
	}
	if r.agg != nil {
		t.Retain() // the window buffer keeps the row until the window closes
		_, _ = r.agg.Process(t, e.aggEmit(id, r))
		return
	}
	row := t
	if r.project != nil {
		var err error
		row, err = r.project.Apply(t)
		if err != nil {
			return
		}
	} else {
		// Raw delivery shares the completed tuple itself — possibly with
		// several queries' subscriptions and spools — so it must never be
		// recycled. Projected rows are fresh per query and stay eligible.
		t.Retain()
	}
	r.delivered++
	e.stats.Delivered++
	e.deliver(id, row)
}

func (e *Engine) aggEmit(id int, r *registered) operator.Emit {
	return func(row *tuple.Tuple) {
		r.delivered++
		e.stats.Delivered++
		e.deliver(id, row)
	}
}

// Delivered returns the per-query delivered row count.
func (e *Engine) Delivered(id int) int64 {
	if r, ok := e.queries[id]; ok {
		return r.delivered
	}
	return 0
}
