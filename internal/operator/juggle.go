package operator

import (
	"container/heap"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Juggle performs online reordering of an in-flight stream, prioritizing
// records by content (Raman, Raman & Hellerstein, VLDB 1999; listed among
// the adaptive routing modules in Figure 1). It buffers up to Capacity
// tuples in a priority heap; once the buffer is full each arrival
// releases the highest-priority buffered tuple, so records the user cares
// about reach the output first while the full stream is still delivered
// (the rest at Flush).
//
// Priority is a numeric expression; larger is sooner. The user can
// re-prioritize mid-stream (interactive control, §1.1 "users may choose
// to modify their queries on the basis of previously returned
// information").
type Juggle struct {
	name     string
	priority expr.Expr
	capacity int
	h        juggleHeap
	seq      int64 // tiebreak: FIFO within equal priority
	stats    Stats
}

// NewJuggle builds a juggle with the given buffer capacity (<=0 → 256).
func NewJuggle(name string, priority expr.Expr, capacity int) *Juggle {
	if capacity <= 0 {
		capacity = 256
	}
	return &Juggle{name: name, priority: priority, capacity: capacity}
}

// Name implements Module.
func (j *Juggle) Name() string { return j.name }

// SetPriority swaps the priority expression mid-stream and re-orders the
// buffered tuples accordingly.
func (j *Juggle) SetPriority(p expr.Expr) error {
	j.priority = p
	for i := range j.h.items {
		pr, err := j.eval(j.h.items[i].t)
		if err != nil {
			return err
		}
		j.h.items[i].pri = pr
	}
	heap.Init(&j.h)
	return nil
}

// Buffered returns the number of tuples awaiting release.
func (j *Juggle) Buffered() int { return len(j.h.items) }

// Interested implements Module.
func (j *Juggle) Interested(t *tuple.Tuple) bool {
	for _, c := range expr.Columns(j.priority, nil) {
		if _, err := c.Resolve(t.Schema); err != nil {
			return false
		}
	}
	return true
}

func (j *Juggle) eval(t *tuple.Tuple) (float64, error) {
	v, err := j.priority.Eval(t)
	if err != nil {
		return 0, err
	}
	return v.AsFloat(), nil
}

// Process implements Module: buffer the tuple; when the buffer is full,
// release the best tuple immediately (one in, one out keeps latency
// bounded).
func (j *Juggle) Process(t *tuple.Tuple, emit Emit) (Outcome, error) {
	j.stats.In++
	pr, err := j.eval(t)
	if err != nil {
		return Drop, err
	}
	heap.Push(&j.h, juggleItem{t: t, pri: pr, seq: j.seq})
	j.seq++
	if len(j.h.items) > j.capacity {
		best := heap.Pop(&j.h).(juggleItem)
		j.stats.Out++
		emit(best.t)
	}
	return Consumed, nil
}

// Flush implements Flusher: release everything in priority order.
func (j *Juggle) Flush(emit Emit) error {
	for len(j.h.items) > 0 {
		best := heap.Pop(&j.h).(juggleItem)
		j.stats.Out++
		emit(best.t)
	}
	return nil
}

// ModuleStats implements StatsProvider.
func (j *Juggle) ModuleStats() Stats { return j.stats }

type juggleItem struct {
	t   *tuple.Tuple
	pri float64
	seq int64
}

type juggleHeap struct{ items []juggleItem }

func (h *juggleHeap) Len() int { return len(h.items) }
func (h *juggleHeap) Less(a, b int) bool {
	if h.items[a].pri != h.items[b].pri {
		return h.items[a].pri > h.items[b].pri // max-heap on priority
	}
	return h.items[a].seq < h.items[b].seq // FIFO tiebreak
}
func (h *juggleHeap) Swap(a, b int) { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *juggleHeap) Push(x any)    { h.items = append(h.items, x.(juggleItem)) }
func (h *juggleHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}
