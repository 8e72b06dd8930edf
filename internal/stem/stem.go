// Package stem implements State Modules (SteMs, §2.2; Raman et al. ICDE
// 2003): temporary repositories of homogeneous tuples, each "half of a
// traditional join operator". A SteM supports insert (build), search
// (probe), and window eviction, optionally accelerated by a hash index
// on a key expression. Eddies route build and probe tuples through SteMs
// to compose symmetric hash joins, asynchronous index joins, and hybrids
// of the two at runtime.
//
// The container is a windowed hash table whose costs follow the work
// done. Stored rows live by value in one ring ordered by TS.Seq; the
// hash index is a per-hash FIFO chain threaded through that ring, so
// evicting a window's worth of rows pops ring heads, each of which is
// also its chain's head: O(evicted), no allocation, no tombstones. A
// probe walks one chain (or the ring, unindexed), compares the key
// Value kept at build time, runs the residual — column ordinals resolved
// once per schema pair — in place on the two tuples, and materializes a
// join tuple only for candidates that survive.
//
// A SteM is owned by a single Execution Object and is not synchronized;
// Flux partitions each own a private SteM.
package stem

import (
	"fmt"
	"math"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// Stats counts SteM activity for routing policies and experiments.
type Stats struct {
	Builds      int64
	Probes      int64
	Matches     int64
	Evicted     int64
	IndexProbes int64
	ScanProbes  int64
}

// SteM stores tuples spanning one set of sources (homogeneous). With a
// key expression it maintains a hash index; probes whose ProbeSpec carries
// a matching key expression use it, others fall back to scanning.
type SteM struct {
	name    string
	keyExpr expr.Expr // expression over *stored* tuples; nil = no index

	// rows is a ring (length zero or a power of two) holding the n live
	// rows at logical indices base … base+n-1, non-decreasing in TS.Seq.
	// Logical index i lives in slot i&(len(rows)-1); indices only grow,
	// so an eviction moves base and invalidates no link.
	rows []row
	base uint64
	n    int
	// index maps a key hash to its chain of rows, linked in logical-index
	// (hence Seq) order. Nil when the SteM is unindexed.
	index map[uint64]chain

	plans map[planKey]*Plan // Probe's compiled plans
	out   []*tuple.Tuple    // result buffer, reused by every probe
	stats Stats
}

type row struct {
	t    *tuple.Tuple
	key  tuple.Value // keyExpr over t, kept so no probe re-evaluates it
	hash uint64
	next uint64 // next row of the same hash chain; noRow ends it
}

type chain struct{ head, tail uint64 }

const noRow = math.MaxUint64

// New creates a SteM named after the source(s) it stores. keyExpr, when
// non-nil, is evaluated over stored tuples to maintain the hash index
// (e.g. the join column for an equi-join).
func New(name string, keyExpr expr.Expr) *SteM {
	s := &SteM{name: name, keyExpr: keyExpr}
	if keyExpr != nil {
		s.index = make(map[uint64]chain)
	}
	return s
}

// Name returns the SteM's name ("SteM(S)" style naming is the caller's).
func (s *SteM) Name() string { return s.name }

// Indexed reports whether the SteM maintains a hash index.
func (s *SteM) Indexed() bool { return s.keyExpr != nil }

// Size returns the number of stored tuples.
func (s *SteM) Size() int { return s.n }

// Stats returns a copy of the activity counters.
func (s *SteM) Stats() Stats { return s.stats }

func (s *SteM) at(i uint64) *row { return &s.rows[i&uint64(len(s.rows)-1)] }

// Build inserts t into the SteM. Tuples normally arrive in TS.Seq order
// and append at the ring's tail; one that arrives late (two concurrent
// pushers can interleave) is inserted at its Seq position, after equal
// Seqs, so eviction stays exact whatever the build order.
func (s *SteM) Build(t *tuple.Tuple) error {
	r := row{t: t, next: noRow}
	if s.keyExpr != nil {
		v, err := s.keyExpr.Eval(t)
		if err != nil {
			return fmt.Errorf("stem %s: build key: %w", s.name, err)
		}
		r.key, r.hash = v, v.Hash()
	}
	t.Retain() // stored join state outlives the routing pass
	if s.n == len(s.rows) {
		s.grow()
	}
	end := s.base + uint64(s.n)
	i := end
	for i > s.base && s.at(i-1).t.TS.Seq > t.TS.Seq {
		i--
	}
	if i < end {
		s.shiftUp(i, end)
	}
	*s.at(i) = r
	s.n++
	if s.index != nil {
		s.link(i)
	}
	s.stats.Builds++
	return nil
}

func (s *SteM) grow() {
	size := 2 * len(s.rows)
	if size == 0 {
		size = 16
	}
	rows := make([]row, size)
	for i := s.base; i < s.base+uint64(s.n); i++ {
		rows[i&uint64(size-1)] = *s.at(i)
	}
	s.rows = rows
}

// shiftUp opens logical index i by moving rows [i, end) up one place and
// renumbering every link that pointed at them. It costs O(window) and
// runs only for an out-of-order build.
func (s *SteM) shiftUp(i, end uint64) {
	for j := end; j > i; j-- {
		*s.at(j) = *s.at(j - 1)
	}
	for j := s.base; j <= end; j++ {
		if r := s.at(j); j != i && r.next != noRow && r.next >= i {
			r.next++
		}
	}
	for h, c := range s.index {
		if c.head >= i {
			c.head++
		}
		if c.tail >= i {
			c.tail++
		}
		s.index[h] = c
	}
}

// link threads row i into its hash chain, keeping the chain in logical
// index order: an in-order build appends at the tail.
func (s *SteM) link(i uint64) {
	r := s.at(i)
	c, ok := s.index[r.hash]
	switch {
	case !ok:
		c = chain{head: i, tail: i}
	case c.tail < i:
		s.at(c.tail).next = i
		c.tail = i
	case i < c.head:
		r.next = c.head
		c.head = i
	default:
		prev := s.at(c.head)
		for prev.next < i {
			prev = s.at(prev.next)
		}
		r.next, prev.next = prev.next, i
	}
	s.index[r.hash] = c
}

// ProbeSpec describes how a probe tuple matches stored tuples.
type ProbeSpec struct {
	// KeyExpr, evaluated over the probe tuple, selects an index bucket.
	// It must correspond to the SteM's key expression (equality
	// predicate between the two). Nil forces a scan probe.
	KeyExpr expr.Expr
	// Residual is evaluated over the concatenated (probe ++ stored)
	// tuple; nil means no residual predicate. For scan probes this is
	// the entire join predicate.
	Residual expr.Expr
	// MaxArrival, when positive, restricts matches to stored tuples
	// that arrived strictly earlier. Symmetric joins use it so every
	// match is produced exactly once — by the later-arriving side.
	MaxArrival int64
}

// Plan is a ProbeSpec's key and residual compiled for one probe schema:
// the key column resolved to an ordinal, and the residual — a
// conjunction of "column OP column" comparisons whenever it comes from
// join factors — resolved to ordinal pairs that are compared in place
// on the probe and stored tuples. Any other residual is interpreted
// over a scratch row the plan owns. A plan belongs to the SteM that
// compiled it.
type Plan struct {
	probe    *tuple.Schema
	keyExpr  expr.Expr
	keyOrd   int // ≥ 0 when keyExpr is a column of the probe schema
	residual expr.Expr
	// The residual is bound to the schema of the stored tuples it meets
	// (one pointer in steady state): cmps when it is all comparisons,
	// scratch — a probe++stored row for the interpreter — when not.
	stored  *tuple.Schema
	cmps    []colCmp
	scratch *tuple.Tuple
}

// colCmp compares two columns of the row probe++stored, by ordinal.
type colCmp struct {
	op          expr.Op
	left, right int
}

type planKey struct {
	probe         *tuple.Schema
	key, residual expr.Expr
}

// planCap bounds Probe's plan cache; schemas are interned, so it only
// guards against a stream of novel schema pointers.
const planCap = 64

// Compile builds the plan for probing with tuples of schema probe under
// spec (MaxArrival is per probe and not part of the plan).
func (s *SteM) Compile(probe *tuple.Schema, spec ProbeSpec) *Plan {
	pl := &Plan{probe: probe, keyOrd: -1, residual: spec.Residual}
	if s.index != nil {
		pl.keyExpr = spec.KeyExpr
	}
	if c, ok := pl.keyExpr.(*expr.ColumnRef); ok {
		if i, err := c.Resolve(probe); err == nil {
			pl.keyOrd = i
		}
	}
	return pl
}

// Probe searches for stored tuples matching p and returns the
// concatenations probe++stored. Matches satisfy the bucket equality (if
// indexed) and the residual predicate. The plan is compiled once per
// (probe schema, key, residual). The returned slice is the SteM's and is
// valid until its next probe; the tuples in it are the caller's.
func (s *SteM) Probe(p *tuple.Tuple, spec ProbeSpec) ([]*tuple.Tuple, error) {
	k := planKey{p.Schema, spec.KeyExpr, spec.Residual}
	pl := s.plans[k]
	if pl == nil {
		if s.plans == nil || len(s.plans) >= planCap {
			s.plans = make(map[planKey]*Plan)
		}
		pl = s.Compile(p.Schema, spec)
		s.plans[k] = pl
	}
	return s.ProbePlan(p, pl, spec.MaxArrival)
}

// ProbePlan is Probe with a plan from Compile; p must have the schema
// the plan was compiled for.
func (s *SteM) ProbePlan(p *tuple.Tuple, pl *Plan, maxArrival int64) ([]*tuple.Tuple, error) {
	s.stats.Probes++
	clear(s.out)
	out := s.out[:0]
	indexed := pl.keyExpr != nil
	i, end := s.base, s.base+uint64(s.n)
	var key tuple.Value
	if indexed {
		s.stats.IndexProbes++
		if pl.keyOrd >= 0 {
			key = p.Values[pl.keyOrd]
		} else {
			v, err := pl.keyExpr.Eval(p)
			if err != nil {
				return nil, fmt.Errorf("stem %s: probe key: %w", s.name, err)
			}
			key = v
		}
		c, ok := s.index[key.Hash()]
		if !ok {
			return out, nil
		}
		i = c.head
	} else {
		s.stats.ScanProbes++
		if s.n == 0 {
			return out, nil
		}
	}
	for i != noRow {
		r := s.at(i)
		if indexed {
			i = r.next
		} else if i++; i == end {
			i = noRow
		}
		if maxArrival > 0 && r.t.Arrival >= maxArrival {
			continue
		}
		// Chains are per hash; verify key equality.
		if indexed && !tuple.Equal(key, r.key) {
			continue
		}
		if pl.residual != nil {
			ok, err := pl.match(p, r.t)
			if err != nil {
				s.out = out
				return nil, fmt.Errorf("stem %s: residual: %w", s.name, err)
			}
			if !ok {
				continue
			}
		}
		out = append(out, tuple.Concat(p, r.t))
	}
	s.out = out
	s.stats.Matches += int64(len(out))
	return out, nil
}

// match evaluates the residual over probe++stored with the
// interpreter's semantics: comparisons left to right, the first false
// or failing one deciding.
func (pl *Plan) match(p, stored *tuple.Tuple) (bool, error) {
	if stored.Schema != pl.stored {
		pl.bind(stored.Schema)
	}
	if sc := pl.scratch; sc != nil {
		sc.Values = append(append(sc.Values[:0], p.Values...), stored.Values...)
		return expr.Truthy(pl.residual, sc)
	}
	np := len(p.Values)
	side := func(i int) tuple.Value {
		if i < np {
			return p.Values[i]
		}
		return stored.Values[i-np]
	}
	for _, c := range pl.cmps {
		v, err := expr.Comparison(c.op, side(c.left), side(c.right))
		if err != nil || !v.B {
			return false, err
		}
	}
	return true, nil
}

// bind resolves the residual's columns against probe++stored, the
// schema the interpreter would see, so ambiguity and absence mean what
// they mean there: the interpreter gets the row and reports them.
func (pl *Plan) bind(stored *tuple.Schema) {
	pl.stored = stored
	concat := pl.probe.ConcatShared(stored)
	pl.cmps, pl.scratch = pl.cmps[:0], nil
	for _, f := range expr.Conjuncts(pl.residual) {
		jf, ok := expr.AsJoinFactor(f)
		if ok {
			l, lerr := jf.Left.Resolve(concat)
			r, rerr := jf.Right.Resolve(concat)
			if ok = lerr == nil && rerr == nil; ok {
				pl.cmps = append(pl.cmps, colCmp{jf.Op, l, r})
			}
		}
		if !ok {
			pl.scratch = &tuple.Tuple{Schema: concat}
			return
		}
	}
}

// EvictBefore removes stored tuples whose logical sequence number is
// below seq (window eviction for sliding windows) — exactly those,
// whatever order they were built in — and returns the count evicted.
func (s *SteM) EvictBefore(seq int64) int {
	n := 0
	for s.n > 0 {
		r := s.at(s.base)
		if r.t.TS.Seq >= seq {
			break
		}
		// The oldest row heads its chain: chains are in ring order.
		if s.index != nil {
			if r.next == noRow {
				delete(s.index, r.hash)
			} else {
				c := s.index[r.hash]
				c.head = r.next
				s.index[r.hash] = c
			}
		}
		*r = row{} // the evicted tuple becomes collectable
		s.base++
		s.n--
		n++
	}
	s.stats.Evicted += int64(n)
	return n
}
