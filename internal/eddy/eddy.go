package eddy

import (
	"fmt"
	"time"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/tuple"
)

// Alternative marks modules that are interchangeable access paths: when
// a tuple is routed to one member of a non-empty group, every member of
// that group is marked done for it. This is how an Eddy hybridizes join
// algorithms (§2.2): the index AM and the SteM probe compete in the
// lottery, and the winner per tuple decides the method.
type Alternative interface {
	Group() string
}

// Stats is a snapshot of the Eddy's activity counters.
type Stats struct {
	Admitted    int64 // source + derived tuples entering routing
	Routed      int64 // tuple→module routing decisions executed
	ChooseCalls int64 // policy invocations (batching amortizes these)
	Outputs     int64 // tuples that completed all modules
	Dropped     int64
}

// ModuleStats is a snapshot of one module's routing observations: how
// many tuples the Eddy sent it, what became of them, and the cumulative
// processing time — the raw material for selectivity and cost-per-tuple
// estimates (the same observations the routing policy feeds on, §2.2).
type ModuleStats struct {
	Name     string
	Routed   int64
	Passed   int64
	Dropped  int64
	Consumed int64
	WorkNs   int64 // cumulative Process time, nanoseconds
}

// Selectivity estimates the fraction of routed tuples that survived.
func (m ModuleStats) Selectivity() float64 {
	if m.Routed == 0 {
		return 1
	}
	return 1 - float64(m.Dropped)/float64(m.Routed)
}

// CostNs estimates nanoseconds of work per routed tuple.
func (m ModuleStats) CostNs() float64 {
	if m.Routed == 0 {
		return 0
	}
	return float64(m.WorkNs) / float64(m.Routed)
}

// Eddy routes tuples among a set of modules according to a Policy.
// It is single-threaded: one Execution Object drives it via Admit and
// Run. The zero value is not usable; call New.
type Eddy struct {
	modules []operator.Module
	stems   []*operator.StemModule
	policy  Policy
	output  func(*tuple.Tuple)

	groups map[string]*bitset.Set // alternative-group name → member set

	work   []*batch // FIFO of batches awaiting routing
	stats  Stats
	serial int64 // admission serial: stamps Tuple.Arrival

	// mstats holds one plain counter block per module (index-aligned
	// with modules). Like everything else in the Eddy it is owned by the
	// single driving Execution Object; telemetry snapshots it through
	// the EO's control channel, keeping the hot path free of atomics.
	mstats []ModuleStats

	// BatchSize groups same-schema source tuples so one routing decision
	// covers many tuples (§4.3 "batching tuples ... reduce per-tuple
	// costs"). 1 disables batching.
	BatchSize int
	// Vectorized enables the columnar fast path: batches routed to
	// modules implementing operator.VecModule are transposed into a
	// ColBatch and processed column-at-a-time (compiled predicates,
	// selection vectors) instead of tuple-at-a-time. Any failure falls
	// back to the per-tuple interpreter path for that batch.
	Vectorized bool
	// FixedHops routes each batch through this many modules per policy
	// decision (§4.3 "fixing operators"). 1 re-decides every hop.
	FixedHops int

	pendingBatch map[string]*batch // open admission batches by schema signature
	pendingOrder []string

	// free recycles batch structs (tuple slice + ready/done bitsets) so
	// steady-state routing does not allocate per admission. Bounded: a
	// burst of in-flight batches beyond the cap falls back to the heap.
	free []*batch
	// inherit is the done-set scratch emitFn reads; valid only during a
	// routeBatch Process call. No module stores its emit callback (Flush
	// re-enters through e.emit), so one shared closure replaces a
	// per-batch clone + closure allocation.
	inherit bitset.Set
	emitFn  operator.Emit

	// Columnar scratch for the vectorized path, reused across batches.
	cb   tuple.ColBatch
	keep []bool
}

// freeBatchCap bounds the batch freelist.
const freeBatchCap = 64

// newBatch returns an empty batch with cleared routing state, reusing a
// retired one when available.
func (e *Eddy) newBatch() *batch {
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return b
	}
	return &batch{ready: bitset.New(len(e.modules)), done: bitset.New(len(e.modules))}
}

// freeBatch retires a fully routed batch to the freelist.
func (e *Eddy) freeBatch(b *batch) {
	if len(e.free) >= freeBatchCap {
		return
	}
	for i := range b.tuples {
		b.tuples[i] = nil
	}
	b.tuples = b.tuples[:0]
	b.ready.Clear()
	b.done.Clear()
	e.free = append(e.free, b)
}

// batch is a set of tuples sharing a routing state. With BatchSize 1
// every batch holds one tuple.
type batch struct {
	tuples []*tuple.Tuple
	ready  *bitset.Set
	done   *bitset.Set
}

// New builds an Eddy over the given modules. output receives tuples that
// have been handled by every interested module (the caller decides which
// queries they satisfy).
func New(modules []operator.Module, policy Policy, output func(*tuple.Tuple)) *Eddy {
	e := &Eddy{
		modules:      modules,
		policy:       policy,
		output:       output,
		groups:       map[string]*bitset.Set{},
		BatchSize:    1,
		FixedHops:    1,
		pendingBatch: map[string]*batch{},
	}
	e.emitFn = func(x *tuple.Tuple) { e.enqueueDerived(x, &e.inherit) }
	for i, m := range modules {
		e.mstats = append(e.mstats, ModuleStats{Name: m.Name()})
		if sm, ok := m.(*operator.StemModule); ok {
			e.stems = append(e.stems, sm)
		}
		if alt, ok := m.(Alternative); ok && alt.Group() != "" {
			g := e.groups[alt.Group()]
			if g == nil {
				g = bitset.New(len(modules))
				e.groups[alt.Group()] = g
			}
			g.Add(i)
		}
	}
	return e
}

// Modules returns the routed module list (index order matters to
// policies).
func (e *Eddy) Modules() []operator.Module { return e.modules }

// AddModule appends a module at runtime and returns its index. Tuples
// already in flight are not re-routed through it; new admissions are —
// the discipline for folding freshly registered queries into a running
// dataflow (§4.2.1 "plans are dynamically folded into the running
// queries").
func (e *Eddy) AddModule(m operator.Module) int {
	idx := len(e.modules)
	e.modules = append(e.modules, m)
	e.mstats = append(e.mstats, ModuleStats{Name: m.Name()})
	if sm, ok := m.(*operator.StemModule); ok {
		e.stems = append(e.stems, sm)
	}
	if alt, ok := m.(Alternative); ok && alt.Group() != "" {
		g := e.groups[alt.Group()]
		if g == nil {
			g = bitset.New(len(e.modules))
			e.groups[alt.Group()] = g
		}
		g.Add(idx)
	}
	return idx
}

// Stats returns a snapshot of the counters. Must be called from the
// driving Execution Object; telemetry reaches it through the EO's
// control channel.
func (e *Eddy) Stats() Stats {
	return e.stats
}

// ModuleStatsSnapshot returns a copy of the per-module routing
// observations. Like Stats it must be called from the driving Execution
// Object; telemetry reaches it through the EO's control channel.
func (e *Eddy) ModuleStatsSnapshot() []ModuleStats {
	return append([]ModuleStats(nil), e.mstats...)
}

// Add sums two Stats snapshots. Sharded executors snapshot each shard's
// eddy through its own control path (so no counter is ever read off its
// owning thread) and aggregate the copies with Add — concurrent scrapes
// stay race-free because only immutable snapshots are combined.
func (s Stats) Add(o Stats) Stats {
	s.Admitted += o.Admitted
	s.Routed += o.Routed
	s.ChooseCalls += o.ChooseCalls
	s.Outputs += o.Outputs
	s.Dropped += o.Dropped
	return s
}

// MergeModuleStats folds more into dst by module name, summing the raw
// counters (Selectivity/CostNs are derived, so they aggregate
// correctly). Both inputs are snapshots; the merge allocates only when a
// name in more is missing from dst. Order of dst is preserved; new
// names append in their order of appearance.
func MergeModuleStats(dst, more []ModuleStats) []ModuleStats {
	idx := make(map[string]int, len(dst))
	for i, m := range dst {
		idx[m.Name] = i
	}
	for _, m := range more {
		i, ok := idx[m.Name]
		if !ok {
			idx[m.Name] = len(dst)
			dst = append(dst, m)
			continue
		}
		d := &dst[i]
		d.Routed += m.Routed
		d.Passed += m.Passed
		d.Dropped += m.Dropped
		d.Consumed += m.Consumed
		d.WorkNs += m.WorkNs
	}
	return dst
}

// readyBitsInto overwrites r with the fresh ready bitmap for a tuple
// entering routing.
func (e *Eddy) readyBitsInto(t *tuple.Tuple, r *bitset.Set) {
	r.Clear()
	for i, m := range e.modules {
		if m.Interested(t) {
			r.Add(i)
		}
	}
}

// Admit enters a source tuple into the dataflow: it is stamped with its
// admission serial, built into the SteM of its base relation
// (build-before-probe plus the arrival constraint keeps symmetric joins
// exactly-once), then queued for routing.
func (e *Eddy) Admit(t *tuple.Tuple) error {
	e.serial++
	t.Arrival = e.serial
	for _, sm := range e.stems {
		if sm.IsBase(t) {
			if err := sm.Build(t); err != nil {
				return err
			}
		}
	}
	e.enqueue(t)
	return nil
}

// sig is the batching key: tuples sharing a source signature share
// routing state. Single-source schemas (the overwhelmingly common case)
// use the source name itself to avoid building a key per tuple.
func sig(s *tuple.Schema) string {
	if len(s.Sources) == 1 {
		return s.Sources[0]
	}
	k := ""
	for _, src := range s.Sources {
		k += src + "\x00"
	}
	return k
}

// enqueue adds a source tuple to routing, batching with same-signature
// peers when BatchSize > 1.
func (e *Eddy) enqueue(t *tuple.Tuple) {
	e.stats.Admitted++
	if e.BatchSize <= 1 {
		b := e.newBatch()
		e.readyBitsInto(t, b.ready)
		b.tuples = append(b.tuples, t)
		e.work = append(e.work, b)
		return
	}
	key := sig(t.Schema)
	b := e.pendingBatch[key]
	if b == nil {
		b = e.newBatch()
		e.readyBitsInto(t, b.ready)
		e.pendingBatch[key] = b
		e.pendingOrder = append(e.pendingOrder, key)
	}
	b.tuples = append(b.tuples, t)
	if len(b.tuples) >= e.BatchSize {
		delete(e.pendingBatch, key)
		e.removePendingOrder(key)
		e.work = append(e.work, b)
	}
}

// enqueueDerived admits a module-produced tuple (join match, window
// result) with an inherited done set: modules the producing cascade has
// already visited are not revisited, which keeps multiway joins
// exactly-once and avoids re-filtering columns already filtered.
func (e *Eddy) enqueueDerived(t *tuple.Tuple, done *bitset.Set) {
	e.stats.Admitted++
	b := e.newBatch()
	e.readyBitsInto(t, b.ready)
	if done != nil {
		b.done.CopyFrom(done)
	}
	if t.Lin != nil {
		b.done.Union(&t.Lin.Done)
	}
	b.ready.Subtract(b.done)
	// Alternative groups: a done member marks the whole group done.
	for _, g := range e.groups {
		if b.done.IntersectsWith(g) {
			b.ready.Subtract(g)
		}
	}
	b.tuples = append(b.tuples, t)
	e.work = append(e.work, b)
}

func (e *Eddy) removePendingOrder(key string) {
	for i, x := range e.pendingOrder {
		if x == key {
			e.pendingOrder = append(e.pendingOrder[:i], e.pendingOrder[i+1:]...)
			return
		}
	}
}

// flushPending moves partially filled admission batches into the work
// queue (called when the source pauses or ends).
func (e *Eddy) flushPending() {
	for _, k := range e.pendingOrder {
		if b := e.pendingBatch[k]; b != nil && len(b.tuples) > 0 {
			e.work = append(e.work, b)
		}
		delete(e.pendingBatch, k)
	}
	e.pendingOrder = e.pendingOrder[:0]
}

// Pending reports queued work (batches awaiting routing).
func (e *Eddy) Pending() int {
	n := len(e.work)
	for _, b := range e.pendingBatch {
		if len(b.tuples) > 0 {
			n++
		}
	}
	return n
}

// Step performs one routing decision (one batch through up to FixedHops
// modules). It reports whether any work was done.
func (e *Eddy) Step() (bool, error) {
	if len(e.work) == 0 {
		e.flushPending()
		if len(e.work) == 0 {
			return false, nil
		}
	}
	b := e.work[0]
	e.work = e.work[1:]

	hops := e.FixedHops
	if hops < 1 {
		hops = 1
	}
	if ranker, ok := e.policy.(Ranker); ok && hops > 1 {
		// Operator fixing (§4.3): one policy decision yields a sequence
		// of modules the batch is routed through without re-deciding.
		e.stats.ChooseCalls++
		seq := ranker.Rank(b.ready, nil)
		for _, m := range seq {
			if hops == 0 || b.ready.Empty() || len(b.tuples) == 0 {
				break
			}
			if !b.ready.Contains(m) {
				continue // an earlier hop retired this module's group
			}
			hops--
			if err := e.routeBatch(b, m); err != nil {
				return true, err
			}
		}
	} else {
		for hop := 0; hop < hops; hop++ {
			if b.ready.Empty() || len(b.tuples) == 0 {
				break
			}
			m := e.policy.Choose(b.ready)
			e.stats.ChooseCalls++
			if m < 0 {
				break
			}
			if err := e.routeBatch(b, m); err != nil {
				return true, err
			}
		}
	}
	if len(b.tuples) > 0 && !b.ready.Empty() {
		e.work = append(e.work, b)
		return true, nil
	}
	// Routing complete: deliver survivors. The output callback owns each
	// tuple from here (it retains or recycles per the pool's ownership
	// rules); the batch shell goes back to the freelist.
	for _, t := range b.tuples {
		e.stats.Outputs++
		e.output(t)
	}
	e.freeBatch(b)
	return true, nil
}

// routeBatch routes every tuple of b to module m.
func (e *Eddy) routeBatch(b *batch, m int) error {
	mod := e.modules[m]
	if e.Vectorized && len(b.tuples) > 1 {
		if vm, ok := mod.(operator.VecModule); ok && e.routeVec(b, m, vm) {
			return nil
		}
	}
	survivors := b.tuples[:0]
	// Emissions during this batch inherit the batch's done set plus the
	// module being visited, so cascades never revisit this module. The
	// inherited set lives in shared scratch read by the pre-built emitFn:
	// emit is only ever called synchronously inside Process, so no
	// per-batch clone or closure is needed. enqueueDerived copies the
	// scratch before returning.
	e.inherit.CopyFrom(b.done)
	e.inherit.Add(m)
	emit := e.emitFn
	mc := &e.mstats[m]
	for _, t := range b.tuples {
		start := time.Now()
		out, err := mod.Process(t, emit)
		cost := time.Since(start).Nanoseconds()
		if err != nil {
			return fmt.Errorf("module %s: %w", mod.Name(), err)
		}
		e.stats.Routed++
		mc.Routed++
		mc.WorkNs += cost
		produced := 0
		switch out {
		case operator.Pass:
			survivors = append(survivors, t)
			mc.Passed++
			produced = 1
		case operator.Drop:
			e.stats.Dropped++
			mc.Dropped++
			// The routing pass retired this tuple; back to the pool
			// (no-op if a SteM or other store retained it earlier).
			tuple.Recycle(t)
		case operator.Consumed:
			// The module retained the tuple; derived tuples arrive via
			// emit, now or at Flush. Stamp the done set on the tuple so
			// deferred emissions inherit it.
			t.Lineage().Done.CopyFrom(&e.inherit)
			mc.Consumed++
		}
		e.policy.Observe(m, out, produced, cost)
	}
	for i := len(survivors); i < len(b.tuples); i++ {
		b.tuples[i] = nil
	}
	b.tuples = survivors
	e.markDone(b, m)
	return nil
}

// routeVec tries the columnar fast path: one ProcessVec call covers the
// whole batch, with the routing bookkeeping (stats, policy
// observations, survivor compaction) applied per lane afterwards. It
// reports false when the batch cannot be vectorized — mixed schema
// pointers, an uncompilable predicate, or a lane evaluation error — and
// the caller then replays tuple-at-a-time, which re-establishes exact
// interpreter semantics (including which tuple an error surfaces on).
func (e *Eddy) routeVec(b *batch, m int, vm operator.VecModule) bool {
	if !e.cb.Load(b.tuples) {
		return false
	}
	n := len(b.tuples)
	if cap(e.keep) < n {
		e.keep = make([]bool, n)
	}
	keep := e.keep[:n]
	start := time.Now()
	if !vm.ProcessVec(&e.cb, b.tuples, keep) {
		return false
	}
	cost := time.Since(start).Nanoseconds()
	per := cost / int64(n)
	mc := &e.mstats[m]
	mc.WorkNs += cost
	survivors := b.tuples[:0]
	for i, t := range b.tuples {
		e.stats.Routed++
		mc.Routed++
		if keep[i] {
			survivors = append(survivors, t)
			mc.Passed++
			e.policy.Observe(m, operator.Pass, 1, per)
		} else {
			e.stats.Dropped++
			mc.Dropped++
			tuple.Recycle(t)
			e.policy.Observe(m, operator.Drop, 0, per)
		}
	}
	for i := len(survivors); i < n; i++ {
		b.tuples[i] = nil
	}
	b.tuples = survivors
	e.markDone(b, m)
	return true
}

// markDone clears the module — and its whole alternative group — from
// the batch's ready set.
func (e *Eddy) markDone(b *batch, m int) {
	b.ready.Remove(m)
	b.done.Add(m)
	if alt, ok := e.modules[m].(Alternative); ok && alt.Group() != "" {
		if g := e.groups[alt.Group()]; g != nil {
			b.ready.Subtract(g)
		}
	}
}

// emit admits a derived tuple produced outside a batch context (flush).
// The done set inherited comes from the tuple's own lineage, stamped
// when the producer consumed its input.
func (e *Eddy) emit(t *tuple.Tuple) {
	e.enqueueDerived(t, nil)
}

// RunUntilIdle steps until no queued work remains. maxSteps bounds
// runaway loops (0 = 1<<30).
func (e *Eddy) RunUntilIdle(maxSteps int) error {
	if maxSteps <= 0 {
		maxSteps = 1 << 30
	}
	for i := 0; i < maxSteps; i++ {
		worked, err := e.Step()
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
	return fmt.Errorf("eddy: exceeded %d steps", maxSteps)
}

// Flush ends the input streams: pending admission batches are routed
// and window state flushed (the Eddy "shuts down its connected modules
// when the end of all of its input streams has been reached").
func (e *Eddy) Flush() error {
	if err := e.RunUntilIdle(0); err != nil {
		return err
	}
	for _, m := range e.modules {
		if fl, ok := m.(operator.Flusher); ok {
			if err := fl.Flush(e.emit); err != nil {
				return err
			}
		}
	}
	return e.RunUntilIdle(0)
}
