package operator

import (
	"fmt"
	"math"
	"unicode/utf8"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// AggKind enumerates the aggregate functions (Figure 1's Group and
// Aggregation modules).
type AggKind uint8

const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
	AggStdDev
)

var aggNames = map[AggKind]string{
	AggCount: "count", AggSum: "sum", AggAvg: "avg",
	AggMin: "min", AggMax: "max", AggStdDev: "stddev",
}

func (k AggKind) String() string { return aggNames[k] }

// ParseAggKind maps a SQL function name to an AggKind.
func ParseAggKind(name string) (AggKind, bool) {
	for k, n := range aggNames {
		if n == name {
			return k, true
		}
	}
	return 0, false
}

// AggSpec is one aggregate in the SELECT list.
type AggSpec struct {
	Kind AggKind
	Arg  expr.Expr // nil only for COUNT(*)
	As   string    // output column name override
}

// OutputName returns the column name of the aggregate in result rows.
func (a AggSpec) OutputName() string {
	if a.As != "" {
		return a.As
	}
	if a.Arg == nil {
		return "count"
	}
	return a.Kind.String() + "_" + a.Arg.String()
}

// Strategy selects the window-state algorithm (§4.1.2: "for a landmark
// window, it is possible to compute the answer iteratively ... for a
// sliding window, computing the maximum requires the maintenance of the
// entire window").
type Strategy uint8

const (
	// StrategyAuto picks Incremental for landmark/snapshot windows and
	// Deque for sliding windows.
	StrategyAuto Strategy = iota
	// StrategyIncremental keeps O(1) accumulators; valid only when the
	// window's left edge never moves (landmark/snapshot).
	StrategyIncremental
	// StrategyRecompute buffers the window's tuples and recomputes each
	// result from scratch — always correct, the ablation baseline.
	StrategyRecompute
	// StrategyDeque keeps subtractable accumulators plus monotonic
	// deques for MIN/MAX — O(1) amortized per tuple on sliding windows.
	StrategyDeque
)

func (s Strategy) String() string {
	switch s {
	case StrategyIncremental:
		return "incremental"
	case StrategyRecompute:
		return "recompute"
	case StrategyDeque:
		return "deque"
	default:
		return "auto"
	}
}

// WindowAgg evaluates grouped aggregates over the window sequence of one
// input stream. It is arrival-driven: when a tuple's instant passes the
// current window's right edge, the window closes and one result row per
// group is emitted, stamped with the loop value t.
type WindowAgg struct {
	name     string
	stream   string
	spec     *window.Spec
	seq      *window.Sequence
	cur      window.Instance
	open     bool
	finished bool

	groupBy  []*expr.ColumnRef
	aggs     []AggSpec
	strategy Strategy
	out      *tuple.Schema

	buf    []*tuple.Tuple       // StrategyRecompute: live window buffer
	groups map[string]*groupAcc // Incremental/Deque accumulators
	order  []string             // group emission order (first seen)

	countStar bool          // some aggregate is COUNT(*)
	keyBuf    []byte        // reused group-key bytes
	keyVals   []tuple.Value // reused group-column values

	stats Stats
}

// NewWindowAgg builds the module. st is the query's bound start time (ST
// in the paper's for-loop). The spec must contain a WindowIs for the
// named stream and must move forward (backward windows are served by the
// storage scanner instead).
func NewWindowAgg(name, stream string, spec *window.Spec, st int64,
	groupBy []*expr.ColumnRef, aggs []AggSpec, strategy Strategy) (*WindowAgg, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	found := false
	for _, d := range spec.Defs {
		if d.Stream == stream {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("window spec has no WindowIs for stream %s", stream)
	}
	kind, _, _ := spec.Classify()
	if kind == window.KindBackward {
		return nil, fmt.Errorf("backward windows require the storage scanner, not WindowAgg")
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("no aggregates specified")
	}
	if strategy == StrategyAuto {
		switch kind {
		case window.KindLandmark, window.KindSnapshot:
			strategy = StrategyIncremental
		default:
			strategy = StrategyDeque
		}
	}
	if strategy == StrategyIncremental && kind == window.KindSliding {
		return nil, fmt.Errorf("incremental strategy is incorrect for sliding windows")
	}
	w := &WindowAgg{
		name:     name,
		stream:   stream,
		spec:     spec,
		seq:      window.NewSequence(spec, st),
		groupBy:  groupBy,
		aggs:     aggs,
		strategy: strategy,
		groups:   map[string]*groupAcc{},
	}
	for _, a := range aggs {
		w.countStar = w.countStar || a.Arg == nil
	}
	w.cur, w.open = w.seq.Next()
	if !w.open {
		w.finished = true
	}
	w.out = w.outputSchema()
	return w, nil
}

// outputSchema is: t (loop value), group columns, aggregate columns.
func (w *WindowAgg) outputSchema() *tuple.Schema {
	cols := []tuple.Column{{Source: w.name, Name: "t", Kind: tuple.KindInt}}
	for _, g := range w.groupBy {
		cols = append(cols, tuple.Column{Source: w.name, Name: g.Name, Kind: tuple.KindNull})
	}
	for _, a := range w.aggs {
		k := tuple.KindFloat
		if a.Kind == AggCount {
			k = tuple.KindInt
		}
		cols = append(cols, tuple.Column{Source: w.name, Name: a.OutputName(), Kind: k})
	}
	return tuple.NewSchema(cols...)
}

// OutputSchema returns the schema of emitted result rows.
func (w *WindowAgg) OutputSchema() *tuple.Schema { return w.out }

// Name implements Module.
func (w *WindowAgg) Name() string { return w.name }

// Strategy returns the algorithm in use (after auto-selection).
func (w *WindowAgg) Strategy() Strategy { return w.strategy }

// StateSize returns the number of tuples/items currently held — the
// §4.1.2 memory-requirement comparison measures this.
func (w *WindowAgg) StateSize() int {
	switch w.strategy {
	case StrategyRecompute:
		return len(w.buf)
	default:
		n := 0
		for _, g := range w.groups {
			n += g.ring.len()
			for i := range g.aggStates {
				n += g.aggStates[i].dq.len() + g.aggStates[i].ring.len()
			}
		}
		return n
	}
}

// Interested implements Module.
func (w *WindowAgg) Interested(t *tuple.Tuple) bool {
	return t.Schema.HasSource(w.stream)
}

// Process implements Module. Tuples must arrive in nondecreasing instant
// order for the windowed stream (streamers assign sequence numbers on
// arrival, so this holds by construction for logical time).
func (w *WindowAgg) Process(t *tuple.Tuple, emit Emit) (Outcome, error) {
	w.stats.In++
	if w.finished {
		return Consumed, nil
	}
	x := t.TS.Instant(w.spec.Domain)
	if x == tuple.NoInstant {
		return Consumed, nil // no coordinate in this domain: in no window
	}
	r := w.cur.Ranges[w.stream]
	for x > r.Right {
		if err := w.closeWindow(emit); err != nil {
			return Consumed, err
		}
		if w.finished {
			return Consumed, nil
		}
		r = w.cur.Ranges[w.stream]
	}
	if x < r.Left {
		return Consumed, nil // in a hop gap: never needed
	}
	if err := w.absorb(t, x); err != nil {
		return Consumed, err
	}
	return Consumed, nil
}

func (w *WindowAgg) absorb(t *tuple.Tuple, x int64) error {
	if w.strategy == StrategyRecompute {
		w.buf = append(w.buf, t)
		return nil
	}
	g, err := w.group(w.groups, &w.order, t)
	if err != nil {
		return err
	}
	return w.fold(g, t, x, w.strategy == StrategyDeque)
}

// group finds or creates the accumulator for t's group. The key is the
// group columns' kind, text and a 0 byte each, built in a reused buffer;
// the key string and the values are copied only for a new group.
func (w *WindowAgg) group(groups map[string]*groupAcc, order *[]string, t *tuple.Tuple) (*groupAcc, error) {
	buf, vals := w.keyBuf[:0], w.keyVals[:0]
	for _, c := range w.groupBy {
		v, err := c.Eval(t)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		buf = utf8.AppendRune(buf, rune(v.K))
		buf = append(v.AppendText(buf), 0)
	}
	w.keyBuf, w.keyVals = buf, vals
	if g, ok := groups[string(buf)]; ok {
		return g, nil
	}
	g, k := newGroupAcc(append([]tuple.Value(nil), vals...), len(w.aggs)), string(buf)
	groups[k] = g
	*order = append(*order, k)
	return g, nil
}

// closeWindow emits results for the current window, advances the
// sequence, and evicts state behind the next window's left edge.
func (w *WindowAgg) closeWindow(emit Emit) error {
	if err := w.emitResults(emit); err != nil {
		return err
	}
	prevLeft := w.cur.Ranges[w.stream].Left
	w.cur, w.open = w.seq.Next()
	if !w.open {
		w.finished = true
		w.buf = nil
		w.groups = map[string]*groupAcc{}
		w.order = nil
		return nil
	}
	if newLeft := w.cur.Ranges[w.stream].Left; newLeft > prevLeft {
		w.evictBefore(newLeft)
	}
	return nil
}

func (w *WindowAgg) evictBefore(left int64) {
	switch w.strategy {
	case StrategyRecompute:
		kept := w.buf[:0]
		for _, t := range w.buf {
			if t.TS.Instant(w.spec.Domain) >= left {
				kept = append(kept, t)
			}
		}
		for i := len(kept); i < len(w.buf); i++ {
			w.buf[i] = nil
		}
		w.buf = kept
	case StrategyDeque:
		for key, g := range w.groups {
			g.evictBefore(left)
			if g.last < left {
				delete(w.groups, key)
			}
		}
		kept := w.order[:0]
		for _, k := range w.order {
			if _, ok := w.groups[k]; ok {
				kept = append(kept, k)
			}
		}
		w.order = kept
	case StrategyIncremental:
		// Landmark windows never move their left edge.
	}
}

func (w *WindowAgg) emitResults(emit Emit) error {
	r := w.cur.Ranges[w.stream]
	mkRow := func(key []tuple.Value, res func(i int, a AggSpec) tuple.Value) {
		vals := make([]tuple.Value, 0, w.out.Arity())
		vals = append(vals, tuple.Int(w.cur.T))
		vals = append(vals, key...)
		for i, a := range w.aggs {
			vals = append(vals, res(i, a))
		}
		rt := tuple.New(w.out, vals...)
		rt.TS = tuple.Timestamp{Seq: r.Right}
		w.stats.Out++
		emit(rt)
	}

	groups, order := w.groups, w.order
	if w.strategy == StrategyRecompute {
		var err error
		groups, order, err = w.recomputeGroups(r)
		if err != nil {
			return err
		}
	}
	if len(order) == 0 {
		if len(w.groupBy) == 0 {
			mkRow(nil, func(i int, a AggSpec) tuple.Value { return emptyAgg(a) })
		}
		return nil
	}
	for _, k := range order {
		g, ok := groups[k]
		if !ok {
			continue
		}
		mkRow(g.key, func(i int, a AggSpec) tuple.Value { return g.result(i, a) })
	}
	return nil
}

// recomputeGroups scans the buffer and builds fresh accumulators over
// tuples inside the window range.
func (w *WindowAgg) recomputeGroups(r window.Range) (map[string]*groupAcc, []string, error) {
	groups := map[string]*groupAcc{}
	var order []string
	for _, t := range w.buf {
		x := t.TS.Instant(w.spec.Domain)
		if !r.Contains(x) {
			continue
		}
		g, err := w.group(groups, &order, t)
		if err != nil {
			return nil, nil, err
		}
		if err := w.fold(g, t, x, false); err != nil {
			return nil, nil, err
		}
	}
	return groups, order, nil
}

// Flush implements Flusher: end of stream closes the current window.
func (w *WindowAgg) Flush(emit Emit) error {
	if w.finished || !w.open {
		return nil
	}
	err := w.emitResults(emit)
	w.finished = true
	return err
}

// ModuleStats implements StatsProvider.
func (w *WindowAgg) ModuleStats() Stats { return w.stats }

// ------------------------------------------------------------ group acc

// groupAcc holds one group's accumulators: one aggState per AggSpec plus,
// under the Deque strategy when the query has COUNT(*), a ring of every
// row's instant so eviction can un-count it.
type groupAcc struct {
	key       []tuple.Value
	count     int64 // rows, for COUNT(*): under Deque exact only with the ring
	last      int64 // newest row's instant; the group is empty once it is evicted
	aggStates []aggState
	ring      instantRing
}

// aggState keeps what its aggregate's kind reads. MIN and MAX keep one
// monotonic deque under Deque and a running extremum otherwise; COUNT(arg),
// SUM, AVG and STDDEV keep count/sum/sumsq, plus under Deque a ring of the
// folded values to subtract on eviction.
type aggState struct {
	count float64 // non-null arg count
	sum   float64
	sumsq float64
	ext   tuple.Value
	dq    deque
	ring  floatRing
}

func newGroupAcc(key []tuple.Value, nAggs int) *groupAcc {
	return &groupAcc{key: key, aggStates: make([]aggState, nAggs)}
}

// fold adds one row to g. deques selects the Deque strategy's state.
func (w *WindowAgg) fold(g *groupAcc, t *tuple.Tuple, x int64, deques bool) error {
	g.count++
	g.last = x
	if deques && w.countStar {
		g.ring.push(x)
	}
	for i := range w.aggs {
		a := &w.aggs[i]
		if a.Arg == nil {
			continue
		}
		v, err := a.Arg.Eval(t)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		as := &g.aggStates[i]
		switch {
		case a.Kind == AggMin && deques:
			as.dq.push(dqItem{v, x}, true)
		case a.Kind == AggMax && deques:
			as.dq.push(dqItem{v, x}, false)
		case a.Kind == AggMin:
			if as.ext.IsNull() || lessVal(v, as.ext) {
				as.ext = v
			}
		case a.Kind == AggMax:
			if as.ext.IsNull() || lessVal(as.ext, v) {
				as.ext = v
			}
		default:
			f := v.AsFloat()
			as.count++
			as.sum += f
			as.sumsq += f * f
			if deques {
				as.ring.push(floatItem{f, x})
			}
		}
	}
	return nil
}

func (g *groupAcc) result(i int, a AggSpec) tuple.Value {
	as := &g.aggStates[i]
	switch a.Kind {
	case AggCount:
		if a.Arg == nil {
			return tuple.Int(g.count)
		}
		return tuple.Int(int64(as.count))
	case AggSum:
		if as.count == 0 {
			return tuple.Null()
		}
		return tuple.Float(as.sum)
	case AggAvg:
		if as.count == 0 {
			return tuple.Null()
		}
		return tuple.Float(as.sum / as.count)
	case AggMin, AggMax:
		if as.dq.len() > 0 {
			return as.dq.front().v
		}
		return as.ext
	case AggStdDev:
		if as.count == 0 {
			return tuple.Null()
		}
		mean := as.sum / as.count
		v := as.sumsq/as.count - mean*mean
		if v < 0 {
			v = 0 // floating point guard
		}
		return tuple.Float(math.Sqrt(v))
	}
	return tuple.Null()
}

// evictBefore removes expired contributions (Deque strategy only).
func (g *groupAcc) evictBefore(left int64) {
	g.count -= g.ring.evictBefore(left)
	for i := range g.aggStates {
		as := &g.aggStates[i]
		as.dq.evictBefore(left)
		as.ring.evictBeforeInto(left, as)
	}
}

func emptyAgg(a AggSpec) tuple.Value {
	if a.Kind == AggCount {
		return tuple.Int(0)
	}
	return tuple.Null()
}

// ----------------------------------------------------------------- rings

// fifo is a slice used as a queue ordered by instant: the live items are
// items[head:], and eviction advances head. The slice is compacted only
// once head passes half of it, so each item is copied O(1) times
// amortized.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(it T) { q.items = append(q.items, it) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

// drop removes the n oldest live items.
func (q *fifo[T]) drop(n int) {
	q.head += n
	if q.head > len(q.items)/2 {
		k := copy(q.items, q.items[q.head:])
		clear(q.items[k:]) // the dead tail would keep strings alive
		q.items = q.items[:k]
		q.head = 0
	}
}

type instantRing struct{ fifo[int64] }

func (r *instantRing) evictBefore(left int64) int64 {
	n := 0
	for _, x := range r.items[r.head:] {
		if x >= left {
			break
		}
		n++
	}
	r.drop(n)
	return int64(n)
}

// floatItem is one folded value and the instant that admits it.
type floatItem struct {
	f   float64
	seq int64
}

type floatRing struct{ fifo[floatItem] }

func (r *floatRing) evictBeforeInto(left int64, as *aggState) {
	n := 0
	for _, it := range r.items[r.head:] {
		if it.seq >= left {
			break
		}
		as.count--
		as.sum -= it.f
		as.sumsq -= it.f * it.f
		n++
	}
	r.drop(n)
}

// ----------------------------------------------------------------- deque

// dqItem ties a value to the instant that admits it to the window.
type dqItem struct {
	v   tuple.Value
	seq int64
}

type deque struct{ fifo[dqItem] }

func (d *deque) front() dqItem { return d.items[d.head] }

// push maintains monotonicity: a min-deque's values strictly increase
// front to back; a max-deque's strictly decrease.
func (d *deque) push(it dqItem, isMin bool) {
	for d.len() > 0 {
		last := d.items[len(d.items)-1]
		var pop bool
		if isMin {
			pop = !lessVal(last.v, it.v) // last >= new
		} else {
			pop = !lessVal(it.v, last.v) // last <= new
		}
		if !pop {
			break
		}
		d.items = d.items[:len(d.items)-1]
	}
	d.fifo.push(it)
}

func (d *deque) evictBefore(left int64) {
	n := 0
	for _, it := range d.items[d.head:] {
		if it.seq >= left {
			break
		}
		n++
	}
	d.drop(n)
}

// lessVal is a total "less" over comparable values; incomparable pairs
// report false (callers guarantee same-attribute values). Same-kind int
// and float pairs, the common case, skip tuple.Compare.
func lessVal(a, b tuple.Value) bool {
	if a.K == b.K {
		switch a.K {
		case tuple.KindInt:
			return a.I < b.I
		case tuple.KindFloat:
			return a.F < b.F
		}
	}
	c, ok := tuple.Compare(a, b)
	return ok && c < 0
}
