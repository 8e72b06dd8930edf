package operator

import (
	"telegraphcq/internal/bitset"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
)

// StemModule wraps a SteM as an Eddy-routable module (Figure 2). Base
// tuples of the SteM's source are built in by the Eddy at admission
// (build-before-probe keeps the symmetric join exactly-once); tuples not
// spanning the source probe it and the concatenated matches are emitted
// back to the router.
//
// The module carries the join factors that link its source to the rest
// of the query; a probe is answered with the index when an equality
// factor matches the SteM's key, with the remaining evaluable factors
// applied as a residual. What a probe tuple does here depends only on
// its schema, so the decision — and the SteM's compiled probe plan — is
// made once per schema pointer and reused until the factors change.
type StemModule struct {
	source  string
	st      *stem.SteM
	factors []stemFactor
	// indexCol is the stored-side column the SteM's hash index is built
	// on; only equality factors over it can use the index.
	indexCol *expr.ColumnRef
	// cross names foreign sources whose tuples probe this SteM with no
	// predicate at all: a Cartesian pairing. Registered for query pairs
	// joined without any cross-source factor, which would otherwise
	// never meet and silently emit nothing. The value is the set of
	// queries that asked for the pairing.
	cross map[string]*bitset.Set
	// plans caches one probePlan per probe schema. Today every evaluable
	// factor is conjoined whichever query registered it; a per-query
	// factor group would widen the key, not change the cache.
	plans map[*tuple.Schema]*probePlan
	// group marks alternative access paths: modules sharing a group are
	// interchangeable for routing purposes (hybrid joins, §2.2).
	group string
	stats Stats
	// SimCostNs models an expensive probe (synthetic work per probe).
	SimCostNs int64
}

// stemFactor is a join factor and the queries that registered it;
// factors handed to NewStemModule are fixed and belong to nobody.
type stemFactor struct {
	expr.JoinFactor
	owners bitset.Set
	fixed  bool
}

// probePlan is what tuples of one schema do at this module.
type probePlan struct {
	// interested: the schema does not span the source and either can
	// evaluate a factor against it or is a Cartesian partner.
	interested bool
	// plan is the SteM's compiled probe; nil when there is nothing to
	// probe with (a vacuous visit).
	plan *stem.Plan
}

// planCap bounds the per-schema cache; schemas are interned, so it only
// guards against a stream of novel schema pointers.
const planCap = 64

// NewStemModule wraps st, which stores tuples of source. factors are all
// join factors referencing the source. indexCol, when non-nil, names the
// stored-side column st's hash index is built on.
func NewStemModule(source string, st *stem.SteM, factors []expr.JoinFactor, indexCol *expr.ColumnRef) *StemModule {
	m := &StemModule{source: source, st: st, indexCol: indexCol}
	for _, f := range factors {
		m.factors = append(m.factors, stemFactor{JoinFactor: f, fixed: true})
	}
	return m
}

// Name implements Module.
func (m *StemModule) Name() string { return "stem(" + m.source + ")" }

// Source returns the relation the SteM stores.
func (m *StemModule) Source() string { return m.source }

// SteM exposes the underlying state module (eviction, stats).
func (m *StemModule) SteM() *stem.SteM { return m.st }

// SetGroup marks this module as one of a set of alternative access paths.
func (m *StemModule) SetGroup(g string) { m.group = g }

// AddFactor registers a join factor referencing this SteM's source on
// behalf of query. Duplicate factors (the same predicate from several
// queries) are folded into one — the sharing that makes CACQ joins
// cheap — and the factor lives until its last owner is removed.
func (m *StemModule) AddFactor(query int, f expr.JoinFactor) {
	m.plans = nil
	for i := range m.factors {
		old := &m.factors[i]
		if old.Op == f.Op &&
			old.Left.Source == f.Left.Source && old.Left.Name == f.Left.Name &&
			old.Right.Source == f.Right.Source && old.Right.Name == f.Right.Name {
			old.owners.Add(query)
			return
		}
	}
	m.factors = append(m.factors, stemFactor{JoinFactor: f})
	m.factors[len(m.factors)-1].owners.Add(query)
}

// AddCross registers source as a Cartesian partner on behalf of query:
// its tuples probe this SteM unconditionally and every stored tuple
// matches.
func (m *StemModule) AddCross(query int, source string) {
	m.plans = nil
	if m.cross == nil {
		m.cross = map[string]*bitset.Set{}
	}
	if m.cross[source] == nil {
		m.cross[source] = &bitset.Set{}
	}
	m.cross[source].Add(query)
}

// RemoveQuery withdraws query from every factor and Cartesian pairing
// it registered, dropping those it was the last owner of: a cancelled
// query's predicate must not keep filtering the survivors' matches.
func (m *StemModule) RemoveQuery(query int) {
	m.plans = nil
	kept := m.factors[:0]
	for i := range m.factors {
		f := &m.factors[i]
		f.owners.Remove(query)
		if f.fixed || !f.owners.Empty() {
			kept = append(kept, *f)
		}
	}
	clear(m.factors[len(kept):])
	m.factors = kept
	for src, owners := range m.cross {
		if owners.Remove(query); owners.Empty() {
			delete(m.cross, src)
		}
	}
}

// Probed reports whether any factor or Cartesian pairing can still send
// a probe here. A SteM nothing probes stores nothing: Build is a no-op.
func (m *StemModule) Probed() bool { return len(m.factors) > 0 || len(m.cross) > 0 }

// Group implements the router's Alternative interface.
func (m *StemModule) Group() string { return m.group }

// Build inserts a base tuple (called by the Eddy at admission).
func (m *StemModule) Build(t *tuple.Tuple) error {
	if !m.Probed() {
		return nil
	}
	return m.st.Build(t)
}

// IsBase reports whether t is a base tuple of this SteM's source.
func (m *StemModule) IsBase(t *tuple.Tuple) bool {
	return len(t.Schema.Sources) == 1 && t.Schema.Sources[0] == m.source
}

// Interested implements Module: probe tuples are those that do not span
// the source but can evaluate at least one join factor against it.
func (m *StemModule) Interested(t *tuple.Tuple) bool {
	return m.planFor(t.Schema).interested
}

// planFor returns the cached plan for probe schema s, making it on
// first sight: the factors are split into an index key (when the SteM's
// index matches an equality factor whose other side resolves on s) and
// a residual conjunction of every other evaluable factor.
func (m *StemModule) planFor(s *tuple.Schema) *probePlan {
	if p := m.plans[s]; p != nil {
		return p
	}
	if m.plans == nil || len(m.plans) >= planCap {
		m.plans = make(map[*tuple.Schema]*probePlan)
	}
	p := &probePlan{}
	m.plans[s] = p
	var spec stem.ProbeSpec
	var residuals []expr.Expr
	n := 0 // evaluable factors
	for _, f := range m.factors {
		// Identify which side belongs to this source and which probes.
		var mine, other *expr.ColumnRef
		op := f.Op
		switch {
		case f.Left.Source == m.source:
			mine, other = f.Left, f.Right
		case f.Right.Source == m.source:
			mine, other = f.Right, f.Left
			op = op.Negate()
		default:
			continue
		}
		if _, err := other.Resolve(s); err != nil {
			continue // other side not present on the probe tuple
		}
		n++
		if spec.KeyExpr == nil && op == expr.OpEq && m.st.Indexed() &&
			m.indexCol != nil && mine.Name == m.indexCol.Name {
			spec.KeyExpr = other
			continue
		}
		// Residual evaluated on concat(probe, stored): both sides resolve.
		residuals = append(residuals, expr.Bin(f.Op, f.Left, f.Right))
	}
	spec.Residual = expr.Conjoin(residuals)
	if n == 0 {
		// Only a Cartesian partner probes without a factor, and every
		// stored tuple matches it.
		cross := false
		for _, src := range s.Sources {
			cross = cross || m.cross[src] != nil
		}
		if !cross {
			return p
		}
	}
	p.plan = m.st.Compile(s, spec)
	p.interested = !s.HasSource(m.source)
	return p
}

// Process implements Module: probes the SteM and emits concatenations.
// The probe tuple itself passes (its lineage marks this join handled);
// emitted matches re-enter routing with fresh lineage derived by the
// router.
func (m *StemModule) Process(t *tuple.Tuple, emit Emit) (Outcome, error) {
	m.stats.In++
	if m.SimCostNs > 0 {
		spin(m.SimCostNs)
		m.stats.WorkNsec += m.SimCostNs
	}
	p := m.planFor(t.Schema)
	if p.plan == nil {
		return Pass, nil // nothing to evaluate: vacuous visit
	}
	matches, err := m.st.ProbePlan(t, p.plan, t.Arrival)
	if err != nil {
		return Drop, err
	}
	for _, j := range matches {
		// Join lineage: the result inherits the probe's query interest
		// and its done set (CACQ completion-bit inheritance keeps the
		// multiway cascade exactly-once).
		if t.Lin != nil {
			l := j.Lineage()
			l.Queries.CopyFrom(&t.Lin.Queries)
			l.Done.CopyFrom(&t.Lin.Done)
		}
		m.stats.Out++
		emit(j)
	}
	return Pass, nil
}

// EvictBefore removes stored tuples older than seq (window eviction).
func (m *StemModule) EvictBefore(seq int64) int { return m.st.EvictBefore(seq) }

// ModuleStats implements StatsProvider.
func (m *StemModule) ModuleStats() Stats { return m.stats }
