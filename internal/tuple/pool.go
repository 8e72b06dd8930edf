package tuple

import (
	"sync"
	"sync/atomic"
)

// Tuple/lineage recycling.
//
// The dataflow hot path creates a tuple (or a clone, or a join concat)
// per admission and retires most of them within microseconds — a grouped
// filter drops them, or egress writes them to a client and forgets them.
// Making every one of those a garbage-collected heap object is the
// single largest steady-state allocation source in the engine, so
// retired tuples go back to a sync.Pool and their lineage bitmaps (three
// word slices each) are reused by the next Clone/Lineage call.
//
// Ownership rules (who may call Recycle):
//
//   - A tuple is owned by exactly one module (or one queue slot) at a
//     time — the pre-existing Fjords discipline. Only the module that
//     *retires* a tuple may recycle it: the eddy when routing drops it,
//     egress after final delivery, a producer whose enqueue was shed.
//   - A module that stores a tuple beyond the call that received it
//     (SteM entries, window buffers, rows shared by several queries'
//     deliveries) must call Retain first. A retained tuple is never
//     pooled — Recycle on it is a no-op — so long-lived references stay
//     valid without reference counting. A module that needs only a
//     row's wire text keeps the text instead (egress spools and fan-out
//     frames do), so the row still returns to the pool.
//   - Recycling nil is a no-op, so error paths need no guards.
//
// Build with -tags tcqdebug to poison buffers on Put: a stale reference
// to a recycled tuple then reads sentinel garbage instead of silently
// aliasing the next tuple's data.

var tuplePool = sync.Pool{New: func() any { return new(Tuple) }}

var lineagePool = sync.Pool{New: func() any { return new(Lineage) }}

// NewPooled returns an empty tuple over s drawn from the recycler.
// Callers append to Values (its backing array is reused across
// generations) and hand the tuple into the dataflow as usual.
func NewPooled(s *Schema) *Tuple {
	t := getTuple()
	t.Schema = s
	return t
}

// getTuple returns a reset pool tuple: zero metadata, empty Values with
// whatever capacity its previous life accumulated, no lineage.
func getTuple() *Tuple {
	t := tuplePool.Get().(*Tuple)
	t.pooled = false
	atomic.StoreInt32(&t.retained, 0)
	t.Schema = nil
	t.Values = t.Values[:0]
	t.TS = Timestamp{}
	t.Arrival = 0
	t.Lin = nil
	return t
}

// getLineage returns an empty lineage from the pool. The sets are
// cleared here, not at Recycle time: a recycled lineage with stale Done
// bits would silently corrupt the eddy's routing-state derivation.
func getLineage() *Lineage {
	l := lineagePool.Get().(*Lineage)
	l.Ready.Clear()
	l.Done.Clear()
	l.Queries.Clear()
	return l
}

// Retain marks t as escaped into long-lived storage: Recycle becomes a
// no-op for it, forever. Safe to call from any goroutine that owns a
// reference (idempotent, atomic), e.g. when one row fans out to several
// client subscriptions.
func (t *Tuple) Retain() { atomic.StoreInt32(&t.retained, 1) }

// Retained reports whether Retain was called on t.
func (t *Tuple) Retained() bool { return atomic.LoadInt32(&t.retained) != 0 }

// Recycle returns t to the pool if it is eligible (non-nil and not
// retained). Only the module that retired the tuple may call this; see
// the ownership rules above. The tuple's lineage, if any, is recycled
// separately so lineage-free tuples (static tables, direct API use)
// don't starve the lineage pool.
func Recycle(t *Tuple) {
	if t == nil || atomic.LoadInt32(&t.retained) != 0 {
		return
	}
	if t.pooled {
		panic("tuple: Recycle called twice on the same tuple")
	}
	t.pooled = true
	if l := t.Lin; l != nil {
		t.Lin = nil
		poisonLineage(l)
		lineagePool.Put(l)
	}
	poisonTuple(t)
	tuplePool.Put(t)
}
