// Package egress implements result delivery (§4.3 "Egress Modules"):
// push-based subscriptions that stream rows to connected clients through
// bounded Fjord queues (shedding when a client cannot keep up), and
// pull-based spools that log results for clients that disconnect and
// return intermittently (the PSoup modality).
//
// Ownership: Deliver and DeliverBatch take ownership of the rows they
// are handed. A row that reaches a subscription belongs to the consumer
// (which may tuple.Recycle it after use); a row kept by a spool is
// Retained (pinned out of the pool, since spooled rows are fetched
// repeatedly); a row with no consumer, or shed because the subscription
// queue is full, is recycled here — egress is the module that retires
// result tuples.
package egress

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/fjord"
	"telegraphcq/internal/tuple"
)

// ErrDisplaced is the terminal error of a subscription displaced by a
// newer Subscribe for the same query id (a reconnecting client replaces
// its dead session's queue; the old consumer drains and sees this).
var ErrDisplaced = errors.New("egress: subscription displaced by a newer subscriber")

// Publisher is a multi-subscriber delivery sink attached to a query —
// the seam the fan-out subsystem (internal/fanout) plugs into without
// egress importing it. Publish observes (but does not own) the rows:
// it must not retain row pointers past the call. endOffset is the
// query spool's End() after these rows were appended (0 when the query
// has no spool); fan-out frames carry it so cohort replay and live
// delivery reconcile on spool offsets.
type Publisher interface {
	Publish(rows []*tuple.Tuple, endOffset int64)
	// Pending reports undelivered buffered frames (graceful drain waits
	// on it the way it waits on subscription queue depth).
	Pending() int
	Fail(err error)
	Close()
}

// Subscription is a push-based result channel for one query. The queue
// is a lock-free SPSC ring: the producing end is owned by the query's
// Execution Object (one query lives on exactly one EO, and cancellation
// hands the end over only after an ack round-trip), the consuming end by
// the single client reader.
type Subscription struct {
	ID int
	q  *fjord.SPSC[*tuple.Tuple]

	dropped atomic.Int64
	failed  atomic.Value // error: set when the query was quarantined

	// sealed/inflight close the producer-vs-Close race: TryEnqueue checks
	// closed and then publishes, so a row offered concurrently with Close
	// could land in a ring whose consumer already saw closed+empty and
	// left — a silent tuple leak. Producers bracket the enqueue with
	// enter/exit; seal() flips sealed and waits for in-flight producers to
	// drain before closing the queue, so every row is either published
	// before Close (the consumer's post-close drain sees it) or recycled
	// and counted by the producer.
	sealed   atomic.Bool
	inflight atomic.Int32
}

// enter registers a producer about to enqueue. A false return means the
// subscription is sealed: the caller must recycle the row itself (and
// must not call exit).
func (s *Subscription) enter() bool {
	s.inflight.Add(1)
	if s.sealed.Load() {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Subscription) exit() { s.inflight.Add(-1) }

// seal marks the subscription terminal (err may be nil for a plain
// close), waits out in-flight producers, and closes the queue. Rows
// already published stay drainable by the consumer.
func (s *Subscription) seal(err error) {
	if err != nil {
		s.failed.Store(err)
	}
	s.sealed.Store(true)
	for s.inflight.Load() != 0 {
		runtime.Gosched()
	}
	s.q.Close()
}

// Err returns the terminal error of a failed query (nil while healthy).
// It becomes non-nil before the queue closes, so a consumer that sees
// Next report closed can ask Err why.
func (s *Subscription) Err() error {
	if v := s.failed.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Next blocks for the next row; ok is false when the subscription closed
// and drained.
func (s *Subscription) Next() (*tuple.Tuple, bool) { return s.NextOr(nil) }

// NextOr is Next that also returns (nil, false) when stop is closed
// while no row is queued. A consumer that must stop on its own signal
// waits here, in one select, rather than beside a goroutine parked in
// Next; a row it takes after stop is its to retire.
func (s *Subscription) NextOr(stop <-chan struct{}) (*tuple.Tuple, bool) {
	t, err := s.q.DequeueOr(stop)
	return t, err == nil
}

// TryNext returns a row without blocking.
func (s *Subscription) TryNext() (*tuple.Tuple, bool) { return s.q.TryDequeue() }

// NextBatch drains up to len(dst) queued rows into dst without blocking
// and returns the count (batch consumers amortize the queue round-trip).
func (s *Subscription) NextBatch(dst []*tuple.Tuple) int { return s.q.DequeueBatch(dst) }

// Dropped counts rows shed because the client fell behind.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Closed reports whether the producing end has closed the subscription.
// Queued rows may still be pending; drain them with TryNext.
func (s *Subscription) Closed() bool { return s.q.Closed() }

// Len returns queued rows.
func (s *Subscription) Len() int { return s.q.Len() }

// Hub demultiplexes engine deliveries to per-query consumers: push
// subscriptions and/or pull spools.
type Hub struct {
	mu     sync.Mutex
	subs   map[int]*Subscription
	spools map[int]*Spool
	pubs   map[int]Publisher
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: map[int]*Subscription{}, spools: map[int]*Spool{}, pubs: map[int]Publisher{}}
}

// Subscribe attaches a push subscription of the given capacity for a
// query id. Rows arriving while the queue is full are shed (QoS: a slow
// client must not stall the shared dataflow). Capacity is rounded up to
// a power of two by the ring buffer.
//
// Subscribing again for the same id displaces the previous subscription
// rather than silently clobbering it: the old queue is closed with
// ErrDisplaced so its (still single) consumer wakes, drains what was
// already delivered, and recycles — no tuples leak, no reader is
// stranded blocking on a ring nothing will ever close.
func (h *Hub) Subscribe(id, capacity int) *Subscription {
	if capacity <= 0 {
		capacity = 1024
	}
	s := &Subscription{ID: id, q: fjord.NewSPSC[*tuple.Tuple](capacity)}
	h.mu.Lock()
	old := h.subs[id]
	h.subs[id] = s
	h.mu.Unlock()
	if old != nil {
		old.seal(ErrDisplaced)
	}
	return s
}

// PublisherFor attaches (or returns) the fan-out publisher for a query
// id, building it on first attach. Construction happens outside any
// delivery, so the build callback may allocate freely.
func (h *Hub) PublisherFor(id int, build func() Publisher) Publisher {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.pubs[id]; ok {
		return p
	}
	p := build()
	h.pubs[id] = p
	return p
}

// Publisher returns the fan-out publisher attached to a query id, or nil.
func (h *Hub) Publisher(id int) Publisher {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pubs[id]
}

// Publishers returns a snapshot of attached fan-out publishers keyed by
// query id (telemetry and drain iterate it).
func (h *Hub) Publishers() map[int]Publisher {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]Publisher, len(h.pubs))
	for id, p := range h.pubs {
		out[id] = p
	}
	return out
}

// SpoolFor attaches (or returns) a pull spool for a query id.
func (h *Hub) SpoolFor(id int, capacity int) *Spool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sp, ok := h.spools[id]; ok {
		return sp
	}
	sp := NewSpool(capacity)
	h.spools[id] = sp
	return sp
}

// Deliver routes one result row to the query's consumers. It never
// blocks, and it takes ownership of the row (see the package comment).
// Producer-side SPSC contract: all Deliver/DeliverBatch calls for one
// query id must be serialized — the executor guarantees this by keeping
// each query on one EO and acking cancellation before the flush path
// delivers.
func (h *Hub) Deliver(id int, row *tuple.Tuple) {
	h.mu.Lock()
	sub := h.subs[id]
	sp := h.spools[id]
	pub := h.pubs[id]
	h.mu.Unlock()
	var end int64
	if sp != nil {
		sp.Append(row) // retains
		end = sp.End()
	}
	if pub != nil {
		one := [1]*tuple.Tuple{row}
		pub.Publish(one[:], end) // observes only
	}
	if sub != nil {
		if sub.enter() {
			if !sub.q.TryEnqueue(row) {
				sub.dropped.Add(1)
				tuple.Recycle(row)
			}
			sub.exit()
		} else {
			// Sealed concurrently: the consumer is gone; retire here.
			sub.dropped.Add(1)
			tuple.Recycle(row)
		}
	} else if sp == nil {
		tuple.Recycle(row)
	}
}

// DeliverBatch routes a batch of result rows for one query: one hub
// lookup and one ring publish for the whole slice. Ownership and
// serialization rules are those of Deliver. The slice itself is not
// retained.
func (h *Hub) DeliverBatch(id int, rows []*tuple.Tuple) {
	if len(rows) == 0 {
		return
	}
	h.mu.Lock()
	sub := h.subs[id]
	sp := h.spools[id]
	pub := h.pubs[id]
	h.mu.Unlock()
	var end int64
	if sp != nil {
		sp.AppendBatch(rows) // retains
		end = sp.End()
	}
	if pub != nil {
		pub.Publish(rows, end) // observes only; encodes before returning
	}
	if sub != nil {
		n := 0
		if sub.enter() {
			n = sub.q.TryEnqueueBatch(rows)
			sub.exit()
		}
		if n < len(rows) {
			sub.dropped.Add(int64(len(rows) - n))
			for _, r := range rows[n:] {
				tuple.Recycle(r)
			}
		}
	} else if sp == nil {
		for _, r := range rows {
			tuple.Recycle(r)
		}
	}
}

// Fail marks a query's consumers with a terminal error (its EO was
// quarantined) and closes the push queue. Already-delivered rows remain
// consumable; after draining, Next reports closed and Err explains why.
// The spool is marked terminal too, so a pull client that reconnects
// sees the failure rather than a silently frozen result log, and an
// attached fan-out publisher propagates the error to every subscriber.
// The consumers stay attached so telemetry still observes them until
// the query is cancelled.
func (h *Hub) Fail(id int, err error) {
	h.mu.Lock()
	sub := h.subs[id]
	sp := h.spools[id]
	pub := h.pubs[id]
	h.mu.Unlock()
	if sub != nil {
		sub.seal(err)
	}
	if sp != nil {
		sp.Fail(err)
	}
	if pub != nil {
		pub.Fail(err)
	}
}

// Close tears down a query's consumers (cursor closed / query removed).
func (h *Hub) Close(id int) {
	h.mu.Lock()
	s := h.subs[id]
	delete(h.subs, id)
	delete(h.spools, id)
	p := h.pubs[id]
	delete(h.pubs, id)
	h.mu.Unlock()
	if s != nil {
		s.seal(nil)
	}
	if p != nil {
		p.Close()
	}
}

// Subscriptions returns a snapshot of the attached push subscriptions
// (telemetry reads queue depth and shed counts through it).
func (h *Hub) Subscriptions() []*Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		out = append(out, s)
	}
	return out
}

// CloseAll tears down everything (server shutdown).
func (h *Hub) CloseAll() {
	h.mu.Lock()
	subs := h.subs
	pubs := h.pubs
	h.subs = map[int]*Subscription{}
	h.spools = map[int]*Spool{}
	h.pubs = map[int]Publisher{}
	h.mu.Unlock()
	for _, s := range subs {
		s.seal(nil)
	}
	for _, p := range pubs {
		p.Close()
	}
}

// Spool is the pull-based egress operator: results are logged with
// monotonically increasing offsets; an intermittent client fetches from
// its last offset on reconnect. Capacity bounds retained rows (older
// rows age out, and the base offset advances). Spooled rows are Retained
// — Fetch hands out aliases, so they can never return to the pool.
type Spool struct {
	mu   sync.Mutex
	rows []*tuple.Tuple
	base int64 // offset of rows[0]
	cap  int

	failed atomic.Value // error: set when the query was quarantined
}

// NewSpool builds a spool retaining up to capacity rows (<=0 → 4096).
func NewSpool(capacity int) *Spool {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Spool{cap: capacity}
}

// Append logs one row, retaining it.
func (s *Spool) Append(row *tuple.Tuple) {
	row.Retain()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, row)
	s.trimLocked()
}

// AppendBatch logs a batch of rows under one lock round-trip.
func (s *Spool) AppendBatch(rows []*tuple.Tuple) {
	for _, r := range rows {
		r.Retain()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, rows...)
	s.trimLocked()
}

func (s *Spool) trimLocked() {
	if over := len(s.rows) - s.cap; over > 0 {
		s.rows = append(s.rows[:0], s.rows[over:]...)
		s.base += int64(over)
	}
}

// Fetch returns rows from offset `from` (inclusive) and the next offset
// to resume from. Rows aged out below the retained range are skipped.
func (s *Spool) Fetch(from int64) (rows []*tuple.Tuple, next int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.base {
		from = s.base
	}
	i := from - s.base
	if i >= int64(len(s.rows)) {
		return nil, s.base + int64(len(s.rows))
	}
	out := append([]*tuple.Tuple(nil), s.rows[i:]...)
	return out, s.base + int64(len(s.rows))
}

// FetchInto copies up to cap(dst) rows from offset `from` into dst[:0]
// and returns the filled slice plus the next offset to resume from —
// the allocation-free variant of Fetch for steady-state pollers (a
// cohort replaying 100k subscribers must not allocate a slice per
// fetch). The returned slice aliases dst's backing array.
func (s *Spool) FetchInto(dst []*tuple.Tuple, from int64) (rows []*tuple.Tuple, next int64) {
	dst = dst[:0]
	if cap(dst) == 0 {
		return dst, from
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.base {
		from = s.base
	}
	i := from - s.base
	if i >= int64(len(s.rows)) {
		return dst, s.base + int64(len(s.rows))
	}
	avail := s.rows[i:]
	n := len(avail)
	if n > cap(dst) {
		n = cap(dst)
	}
	dst = append(dst, avail[:n]...)
	return dst, from + int64(n)
}

// End returns the offset one past the last logged row.
func (s *Spool) End() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + int64(len(s.rows))
}

// Base returns the offset of the oldest retained row (rows below it
// have aged out). A cohort that replays everything retained starts its
// cursor here; one that wants live-only results starts at End.
func (s *Spool) Base() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// Fail marks the spool terminal: the query producing into it was
// quarantined. Retained rows stay fetchable (partial results are still
// results), but Err tells a reconnecting pull client why no more will
// arrive.
func (s *Spool) Fail(err error) { s.failed.Store(err) }

// Err returns the terminal error of a failed query (nil while healthy).
func (s *Spool) Err() error {
	if v := s.failed.Load(); v != nil {
		return v.(error)
	}
	return nil
}
