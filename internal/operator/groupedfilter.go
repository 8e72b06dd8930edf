package operator

import (
	"fmt"
	"sort"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// GroupedFilter is the CACQ shared-selection index (§3.1): all
// single-variable boolean factors over one attribute, across every
// registered continuous query, indexed together. Routing one tuple
// through the grouped filter evaluates every query's predicate on that
// attribute at once: the filter computes the set of queries whose factor
// *fails* and clears their bits from the tuple's lineage.
//
// Factors are organized by comparison class. Range classes keep bounds
// sorted with precomputed prefix/suffix failure bitsets, so a probe is a
// binary search plus one bitset union — O(log P + |queries|/64) — instead
// of evaluating P predicates individually (the E2 experiment).
type GroupedFilter struct {
	name string
	col  *expr.ColumnRef

	gt, ge, lt, le *rangeClass
	eq             map[uint64][]eqEntry
	allEq          *bitset.Set // queries with any = factor on this attribute
	eqConjuncts    map[int]int // queryID → number of = factors it registered
	multiEq        []int       // queries with >1 = factor, sorted (normally empty)
	ne             map[uint64][]eqEntry

	queries map[int][]expr.RangeFactor // per-query factors (for removal)
	stats   Stats

	// Probe scratch space. A probe runs on the owning Execution Object's
	// thread (like AddFactor), so one set of reusable bitsets per filter
	// instance makes the steady-state probe allocation-free — the E2
	// sub-crossover cost was exactly these per-probe allocations.
	failScratch  bitset.Set // union of failing queries for this probe
	matchScratch bitset.Set // queries whose = factor matched v
	eqScratch    bitset.Set // allEq minus matches
}

type eqEntry struct {
	val   tuple.Value
	query int
}

// rangeClass holds one comparison class's bounds sorted ascending, with
// failure bitsets. For suffix-failing classes (>, >=) failFrom[i] is the
// union of query bits of entries[i:]; for prefix-failing classes (<, <=)
// failTo[i] is the union of entries[:i].
type rangeClass struct {
	op      expr.Op
	entries []eqEntry // sorted by val
	fail    []*bitset.Set
	dirty   bool
	// fkeys/ikeys mirror entries' values when every bound in the class
	// is a float (resp. int): the probe's binary search then compares
	// raw machine numbers instead of calling tuple.Compare per step,
	// with semantics identical to Compare's same-kind branches.
	fkeys []float64
	ikeys []int64
}

// NewGroupedFilter creates a grouped filter over one attribute.
func NewGroupedFilter(col *expr.ColumnRef) *GroupedFilter {
	return &GroupedFilter{
		name:        "gfilter(" + col.String() + ")",
		col:         col,
		gt:          &rangeClass{op: expr.OpGt},
		ge:          &rangeClass{op: expr.OpGe},
		lt:          &rangeClass{op: expr.OpLt},
		le:          &rangeClass{op: expr.OpLe},
		eq:          map[uint64][]eqEntry{},
		allEq:       bitset.New(0),
		eqConjuncts: map[int]int{},
		ne:          map[uint64][]eqEntry{},
		queries:     map[int][]expr.RangeFactor{},
	}
}

// Name implements Module.
func (g *GroupedFilter) Name() string { return g.name }

// Column returns the attribute this filter indexes.
func (g *GroupedFilter) Column() *expr.ColumnRef { return g.col }

// QueryCount returns the number of queries with factors registered.
func (g *GroupedFilter) QueryCount() int { return len(g.queries) }

// FactorCount returns the total number of registered boolean factors.
// FactorCount/QueryCount ≥ 1 is the sharing factor one probe amortizes.
// Like AddFactor, it must run on the owning Execution Object's thread.
func (g *GroupedFilter) FactorCount() int {
	n := 0
	for _, fs := range g.queries {
		n += len(fs)
	}
	return n
}

// AddFactor registers one boolean factor of query q. The factor's column
// must match the filter's attribute.
func (g *GroupedFilter) AddFactor(q int, f expr.RangeFactor) error {
	if f.Col.Name != g.col.Name || (f.Col.Source != "" && g.col.Source != "" && f.Col.Source != g.col.Source) {
		return fmt.Errorf("factor %s does not belong to %s", f, g.name)
	}
	g.queries[q] = append(g.queries[q], f)
	e := eqEntry{val: f.Val, query: q}
	switch f.Op {
	case expr.OpGt:
		g.gt.insert(e)
	case expr.OpGe:
		g.ge.insert(e)
	case expr.OpLt:
		g.lt.insert(e)
	case expr.OpLe:
		g.le.insert(e)
	case expr.OpEq:
		h := f.Val.Hash()
		g.eq[h] = append(g.eq[h], e)
		g.allEq.Add(q)
		g.eqConjuncts[q]++
		g.rebuildMultiEq()
	case expr.OpNe:
		h := f.Val.Hash()
		g.ne[h] = append(g.ne[h], e)
	default:
		return fmt.Errorf("unsupported factor op %v", f.Op)
	}
	return nil
}

// RemoveQuery deletes every factor of query q (queries leave the system
// over time; §1.1 "shared processing must be made robust to ... the
// removal of old ones").
func (g *GroupedFilter) RemoveQuery(q int) {
	if _, ok := g.queries[q]; !ok {
		return
	}
	delete(g.queries, q)
	drop := func(m map[uint64][]eqEntry) {
		for h, es := range m {
			kept := es[:0]
			for _, e := range es {
				if e.query != q {
					kept = append(kept, e)
				}
			}
			if len(kept) == 0 {
				delete(m, h)
			} else {
				m[h] = kept
			}
		}
	}
	drop(g.eq)
	drop(g.ne)
	g.allEq.Remove(q)
	delete(g.eqConjuncts, q)
	g.rebuildMultiEq()
	for _, rc := range []*rangeClass{g.gt, g.ge, g.lt, g.le} {
		kept := rc.entries[:0]
		for _, e := range rc.entries {
			if e.query != q {
				kept = append(kept, e)
			}
		}
		rc.entries = kept
		rc.dirty = true
	}
}

// Interested implements Module: the filter applies to tuples carrying its
// attribute.
func (g *GroupedFilter) Interested(t *tuple.Tuple) bool {
	_, err := g.col.Resolve(t.Schema)
	return err == nil
}

// Process implements Module: it clears the lineage bits of every query
// whose factors fail on this tuple's attribute value and drops the tuple
// when no interested queries remain.
func (g *GroupedFilter) Process(t *tuple.Tuple, _ Emit) (Outcome, error) {
	g.stats.In++
	i, err := g.col.Resolve(t.Schema)
	if err != nil {
		return Drop, err
	}
	v := t.Values[i]
	lin := t.Lineage()

	g.failScratch.Clear()
	if err := g.collectFailures(v, &g.failScratch); err != nil {
		return Drop, err
	}
	lin.Queries.Subtract(&g.failScratch)
	if lin.Queries.Empty() {
		g.stats.Dropped++
		return Drop, nil
	}
	g.stats.Out++
	return Pass, nil
}

// rebuildMultiEq refreshes the registration-time list of queries
// holding more than one = factor (the probe path iterates only this,
// not the whole eqConjuncts map).
func (g *GroupedFilter) rebuildMultiEq() {
	g.multiEq = g.multiEq[:0]
	for q, k := range g.eqConjuncts {
		if k > 1 {
			g.multiEq = append(g.multiEq, q)
		}
	}
	sort.Ints(g.multiEq)
}

// collectFailures unions into failed the queries whose factors reject v.
func (g *GroupedFilter) collectFailures(v tuple.Value, failed *bitset.Set) error {
	// Range classes.
	for _, rc := range []*rangeClass{g.gt, g.ge, g.lt, g.le} {
		if len(rc.entries) == 0 {
			continue
		}
		fs, err := rc.failures(v)
		if err != nil {
			return err
		}
		if fs != nil {
			failed.Union(fs)
		}
	}
	// Equality: every query with an = factor fails unless one of its
	// factors matches v exactly. (A query with two different = factors on
	// the same attribute can never pass; that is the correct semantics of
	// the conjunction.)
	if g.allEq.Empty() && len(g.ne) == 0 {
		return nil
	}
	h := v.Hash()
	if !g.allEq.Empty() {
		g.matchScratch.Clear()
		for _, e := range g.eq[h] {
			if tuple.Equal(e.val, v) {
				g.matchScratch.Add(e.query)
			}
		}
		// Queries with >1 distinct = conjunct cannot all match one value;
		// conservatively require at least one match (exact conjunction
		// semantics are preserved because a query with contradictory =
		// factors registers both, and both must match the same v — they
		// cannot, so at most one matches and the other fails it below.)
		g.eqScratch.CopyFrom(g.allEq)
		g.eqScratch.Subtract(&g.matchScratch)
		failed.Union(&g.eqScratch)
		// Contradictory conjunctions: if query q has k>=2 equality
		// factors, v can match at most one unless values are equal.
		// multiEq is maintained at registration time precisely so this
		// probe-path check touches nothing in the common k==1 case —
		// iterating eqConjuncts here put an O(queries) map walk on
		// every probe.
		for _, q := range g.multiEq {
			k := g.eqConjuncts[q]
			n := 0
			for _, e := range g.eq[h] {
				if e.query == q && tuple.Equal(e.val, v) {
					n++
				}
			}
			if n < k {
				failed.Add(q)
			}
		}
	}
	// Inequality: only queries holding a != factor equal to v fail.
	for _, e := range g.ne[h] {
		if tuple.Equal(e.val, v) {
			failed.Add(e.query)
		}
	}
	return nil
}

// ProcessVec implements VecModule: one probe pass over the batch's key
// column. The column resolves once per batch instead of per tuple, and
// the router's per-tuple dispatch/observation overhead amortizes across
// the run. Lineage subtraction is idempotent, so returning false after
// a mid-batch error is safe: the per-tuple replay re-subtracts the same
// failure sets and re-raises the error at the offending tuple.
func (g *GroupedFilter) ProcessVec(cb *tuple.ColBatch, ts []*tuple.Tuple, keep []bool) bool {
	i, err := g.col.Resolve(cb.Schema())
	if err != nil {
		return false
	}
	col := cb.Col(i)
	dropped := 0
	for l, t := range ts {
		g.failScratch.Clear()
		if err := g.collectFailures(col[l], &g.failScratch); err != nil {
			return false
		}
		lin := t.Lineage()
		lin.Queries.Subtract(&g.failScratch)
		if lin.Queries.Empty() {
			keep[l] = false
			dropped++
		} else {
			keep[l] = true
		}
	}
	n := int64(len(ts))
	g.stats.In += n
	g.stats.Dropped += int64(dropped)
	g.stats.Out += n - int64(dropped)
	return true
}

// MatchQueriesInto overwrites out with the queries of universe whose
// factors on this attribute all pass for value v, reusing out's storage:
// the grouped-filter probe on its own, outside routing. Like Process, it
// must run on the owning thread.
func (g *GroupedFilter) MatchQueriesInto(v tuple.Value, universe, out *bitset.Set) error {
	out.CopyFrom(universe)
	g.failScratch.Clear()
	if err := g.collectFailures(v, &g.failScratch); err != nil {
		return err
	}
	out.Subtract(&g.failScratch)
	return nil
}

// ModuleStats implements StatsProvider.
func (g *GroupedFilter) ModuleStats() Stats { return g.stats }

// ---------------------------------------------------------- range class

func (rc *rangeClass) insert(e eqEntry) {
	rc.entries = append(rc.entries, e)
	rc.dirty = true
}

func (rc *rangeClass) rebuild() error {
	var sortErr error
	sort.Slice(rc.entries, func(i, j int) bool {
		c, ok := tuple.Compare(rc.entries[i].val, rc.entries[j].val)
		if !ok && sortErr == nil {
			sortErr = fmt.Errorf("incomparable bounds %v and %v on one attribute",
				rc.entries[i].val, rc.entries[j].val)
		}
		return c < 0
	})
	if sortErr != nil {
		return sortErr
	}
	n := len(rc.entries)
	rc.fail = make([]*bitset.Set, n+1)
	switch rc.op {
	case expr.OpGt, expr.OpGe:
		// failures are suffixes: fail[i] = bits of entries[i:].
		rc.fail[n] = bitset.New(0)
		for i := n - 1; i >= 0; i-- {
			s := rc.fail[i+1].Clone()
			s.Add(rc.entries[i].query)
			rc.fail[i] = s
		}
	case expr.OpLt, expr.OpLe:
		// failures are prefixes: fail[i] = bits of entries[:i].
		rc.fail[0] = bitset.New(0)
		for i := 0; i < n; i++ {
			s := rc.fail[i].Clone()
			s.Add(rc.entries[i].query)
			rc.fail[i+1] = s
		}
	}
	rc.dirty = false
	rc.fkeys, rc.ikeys = rc.fkeys[:0], rc.ikeys[:0]
	allF, allI := true, true
	for _, e := range rc.entries {
		allF = allF && e.val.K == tuple.KindFloat
		allI = allI && e.val.K == tuple.KindInt
	}
	if allF {
		for _, e := range rc.entries {
			rc.fkeys = append(rc.fkeys, e.val.F)
		}
	}
	if allI {
		for _, e := range rc.entries {
			rc.ikeys = append(rc.ikeys, e.val.I)
		}
	}
	return nil
}

// failures returns the bitset of queries in this class whose factor
// rejects value v (nil means none).
func (rc *rangeClass) failures(v tuple.Value) (*bitset.Set, error) {
	if rc.dirty {
		if err := rc.rebuild(); err != nil {
			return nil, err
		}
	}
	n := len(rc.entries)
	if n == 0 {
		return nil, nil
	}
	// Hand-rolled binary search: sort.Search's closure would capture v
	// and an error slot per probe, which defeats the zero-alloc contract.
	// Boundary predicate per class (cmp is Compare(bound, v)):
	//   >  : fails iff v <= bound ⇒ first index with cmp >= 0
	//   >= : fails iff v <  bound ⇒ first index with cmp >  0
	//   <  : fails iff v >= bound ⇒ prefix of bounds <= v   (cmp > 0)
	//   <= : fails iff v >  bound ⇒ prefix of bounds <  v   (cmp >= 0)
	geq := rc.op == expr.OpGt || rc.op == expr.OpLe
	lo, hi := 0, n
	// Same-kind numeric classes search raw keys (the common case: every
	// bound on a float attribute is a float literal).
	switch {
	case len(rc.fkeys) == n && v.K == tuple.KindFloat:
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			k := rc.fkeys[mid]
			if (geq && k >= v.F) || (!geq && k > v.F) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return rc.fail[lo], nil
	case len(rc.ikeys) == n && v.K == tuple.KindInt:
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			k := rc.ikeys[mid]
			if (geq && k >= v.I) || (!geq && k > v.I) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return rc.fail[lo], nil
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, ok := tuple.Compare(rc.entries[mid].val, v)
		if !ok {
			return nil, fmt.Errorf("incomparable value %v for bound %v", v, rc.entries[mid].val)
		}
		var after bool
		if geq {
			after = c >= 0
		} else {
			after = c > 0
		}
		if after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return rc.fail[lo], nil
}
