// Package egress implements result delivery (§4.3 "Egress Modules"):
// push-based subscriptions that stream rows to connected clients through
// bounded Fjord queues (shedding when a client cannot keep up), and
// pull-based spools that log results for clients that disconnect and
// return intermittently (the PSoup modality).
//
// Encode once: DeliverBatch renders a query's delivered batch to wire
// text (AppendLines: each row's Tuple.AppendText and '\n') once, when
// the query has a spool or a fan-out publisher. The spool logs that
// text, and the publisher copies it into its frames; FETCH and cohort
// replay copy spooled text, so neither keeps or re-encodes a row.
//
// Ownership: Deliver and DeliverBatch take ownership of the rows they
// are handed. A row that reaches a subscription belongs to the consumer
// (which may tuple.Recycle it after use); every other row — with no
// subscription, or shed because the subscription queue is full — is
// recycled here once its text is logged and published: egress is the
// module that retires result tuples.
package egress

import (
	"bytes"
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
// egress importing it. PublishText observes one delivered batch as wire
// text: rows lines, each a row's Tuple.AppendText followed by '\n'. The
// text is the spool's log (or the query's encode scratch), so the
// publisher must copy what it keeps before returning. endOffset is the
// query spool's End() after these rows were appended (0 when the query
// has no spool); fan-out frames carry it so cohort replay and live
// delivery reconcile on spool offsets.
type Publisher interface {
	PublishText(text []byte, rows int, endOffset int64)
	// Pending reports undelivered buffered frames (graceful drain waits
	// on it the way it waits on subscription queue depth).
	Pending() int
	Fail(err error)
	Close()
}

// AppendPrefixed appends each line of text — AppendLines output — to dst
// behind prefix, giving the session wire form ("row <id> <csv>\n" per
// row), and returns the extended slice.
func AppendPrefixed(dst, prefix, text []byte) []byte {
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line = text[:i+1]
		}
		dst = append(append(dst, prefix...), line...)
		text = text[len(line):]
	}
	return dst
}

// Rows is a batch of result rows. Fan-out trees take it for callers that
// publish tuples rather than delivered text, without importing tuple.
type Rows = []*tuple.Tuple

// AppendLines appends each row's wire text — Tuple.AppendText and '\n'
// — to dst and returns the extended slice. It is the one row encoding
// spools, publishers and FETCH share.
func AppendLines(dst []byte, rows Rows) []byte {
	for _, r := range rows {
		dst = append(r.AppendText(dst), '\n')
	}
	return dst
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
// subscriptions, pull spools and fan-out publishers.
type Hub struct {
	mu     sync.Mutex
	routes map[int]*route
}

// route is one query's consumers. The fields are set under Hub.mu; text
// is touched only by the query's deliverer.
type route struct {
	sub *Subscription
	sp  *Spool
	pub Publisher
	// text is the encode scratch of a query that has a publisher but no
	// spool (a spool encodes into its own log). DeliverBatch runs
	// concurrently for queries on different EOs, so the scratch is per
	// query, never the Hub's.
	text []byte
}

// NewHub builds an empty hub.
func NewHub() *Hub { return &Hub{routes: map[int]*route{}} }

// routeLocked returns the query's route, creating it. Caller holds h.mu.
func (h *Hub) routeLocked(id int) *route {
	r := h.routes[id]
	if r == nil {
		r = &route{}
		h.routes[id] = r
	}
	return r
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
	r := h.routeLocked(id)
	old := r.sub
	r.sub = s
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
	r := h.routeLocked(id)
	if r.pub == nil {
		r.pub = build()
	}
	return r.pub
}

// Publisher returns the fan-out publisher attached to a query id, or nil.
func (h *Hub) Publisher(id int) Publisher {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r := h.routes[id]; r != nil {
		return r.pub
	}
	return nil
}

// Publishers returns a snapshot of attached fan-out publishers keyed by
// query id (telemetry and drain iterate it).
func (h *Hub) Publishers() map[int]Publisher {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[int]Publisher{}
	for id, r := range h.routes {
		if r.pub != nil {
			out[id] = r.pub
		}
	}
	return out
}

// SpoolFor attaches (or returns) a pull spool for a query id.
func (h *Hub) SpoolFor(id int, capacity int) *Spool {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.routeLocked(id)
	if r.sp == nil {
		r.sp = NewSpool(capacity)
	}
	return r.sp
}

// Spool returns the pull spool attached to a query id, if any; unlike
// SpoolFor it never creates a route.
func (h *Hub) Spool(id int) (*Spool, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r := h.routes[id]; r != nil && r.sp != nil {
		return r.sp, true
	}
	return nil, false
}

// Routes returns the number of query ids the Hub holds consumers for.
func (h *Hub) Routes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.routes)
}

// Deliver routes one result row to the query's consumers: DeliverBatch
// over a one-row batch.
func (h *Hub) Deliver(id int, row *tuple.Tuple) {
	one := [1]*tuple.Tuple{row}
	h.DeliverBatch(id, one[:])
}

// DeliverBatch routes a batch of result rows for one query: one hub
// lookup, one encode (when the query has a spool or a publisher) and one
// ring publish for the whole slice. It never blocks, and it takes
// ownership of the rows but not the slice (see the package comment).
// Producer-side SPSC contract: all Deliver/DeliverBatch calls for one
// query id must be serialized — the executor guarantees this by keeping
// each query on one EO and acking cancellation before the flush path
// delivers.
func (h *Hub) DeliverBatch(id int, rows []*tuple.Tuple) {
	if len(rows) == 0 {
		return
	}
	h.mu.Lock()
	r := h.routes[id]
	var (
		sub *Subscription
		sp  *Spool
		pub Publisher
	)
	if r != nil {
		sub, sp, pub = r.sub, r.sp, r.pub
	}
	h.mu.Unlock()
	if sp != nil || pub != nil {
		var text []byte
		var end int64
		if sp != nil {
			text, end = sp.AppendBatch(rows)
		} else {
			r.text = AppendLines(r.text[:0], rows)
			text = r.text
		}
		if pub != nil {
			pub.PublishText(text, len(rows), end) // copies before returning
		}
	}
	n := 0
	if sub != nil {
		if sub.enter() {
			n = sub.q.TryEnqueueBatch(rows)
			sub.exit()
		}
		// A sealed subscription's consumer is gone: its rows count as
		// shed, like a full queue's.
		if n < len(rows) {
			sub.dropped.Add(int64(len(rows) - n))
		}
	}
	for _, row := range rows[n:] {
		tuple.Recycle(row)
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
	var (
		sub *Subscription
		sp  *Spool
		pub Publisher
	)
	h.mu.Lock()
	if r := h.routes[id]; r != nil {
		sub, sp, pub = r.sub, r.sp, r.pub
	}
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
	r := h.routes[id]
	delete(h.routes, id)
	h.mu.Unlock()
	if r != nil {
		r.close()
	}
}

// close seals the route's subscription and closes its publisher. The
// route must already be out of the Hub's table.
func (r *route) close() {
	if r.sub != nil {
		r.sub.seal(nil)
	}
	if r.pub != nil {
		r.pub.Close()
	}
}

// Subscriptions returns a snapshot of the attached push subscriptions
// (telemetry reads queue depth and shed counts through it).
func (h *Hub) Subscriptions() []*Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Subscription, 0, len(h.routes))
	for _, r := range h.routes {
		if r.sub != nil {
			out = append(out, r.sub)
		}
	}
	return out
}

// CloseAll tears down everything (server shutdown).
func (h *Hub) CloseAll() {
	h.mu.Lock()
	routes := h.routes
	h.routes = map[int]*route{}
	h.mu.Unlock()
	for _, r := range routes {
		r.close()
	}
}

// Spool is the pull-based egress operator: results are logged with
// monotonically increasing offsets; an intermittent client fetches from
// its last offset on reconnect. Capacity bounds retained rows (older
// rows age out, and the base offset advances).
//
// The spool logs each row's wire text, not the row: one byte log of
// AppendLines output plus the end of every line in it. Both are
// head-indexed — aging out only advances head — and compact once head
// passes half, so between compactions the log holds at most about
// 2 × capacity lines. Compaction runs at the start of an append, never
// after one, so the text an append returns stays in place until the
// next append.
type Spool struct {
	mu   sync.Mutex
	text []byte // the log; line i is text[start(i):ends[i]]
	ends []int  // end of each logged line in text
	head int    // ends[head:] are the retained rows
	base int64  // offset of the row at head
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

// Append logs one row's text: AppendBatch over a one-row batch.
func (s *Spool) Append(row *tuple.Tuple) (text []byte, end int64) {
	one := [1]*tuple.Tuple{row}
	return s.AppendBatch(one[:])
}

// AppendBatch logs a batch of rows under one lock round-trip. It only
// reads the rows. It returns the text it logged — every row of the
// batch, even one longer than the capacity — and End after the append.
// The text aliases the log: it is valid until the next append, and the
// caller must not write to it.
func (s *Spool) AppendBatch(rows []*tuple.Tuple) (text []byte, end int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head > len(s.ends)/2 {
		s.compactLocked()
	}
	from := len(s.text)
	for _, r := range rows {
		s.text = append(r.AppendText(s.text), '\n')
		s.ends = append(s.ends, len(s.text))
	}
	if over := len(s.ends) - s.head - s.cap; over > 0 {
		s.head += over
		s.base += int64(over)
	}
	return s.text[from:], s.endLocked()
}

// compactLocked drops the aged-out lines from the front of the log.
func (s *Spool) compactLocked() {
	shift := s.start(s.head)
	s.text = s.text[:copy(s.text, s.text[shift:])]
	s.ends = s.ends[:copy(s.ends, s.ends[s.head:])]
	for i := range s.ends {
		s.ends[i] -= shift
	}
	s.head = 0
}

// start returns where line i begins in the log.
func (s *Spool) start(i int) int {
	if i == 0 {
		return 0
	}
	return s.ends[i-1]
}

func (s *Spool) endLocked() int64 { return s.base + int64(len(s.ends)-s.head) }

// Fetch returns the text of the rows from offset `from` (inclusive), how
// many rows that is, and the next offset to resume from (End). Rows aged
// out below the retained range are skipped. The text is a fresh copy.
func (s *Spool) Fetch(from int64) (text []byte, rows int, next int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchLocked(nil, from, len(s.ends))
}

// FetchInto appends the text of up to limit rows from offset `from` to dst
// and returns the extended slice, the row count and the next offset to
// resume from — the allocation-free variant of Fetch for steady-state
// pollers (a cohort replaying 100k subscribers must not allocate per
// fetch), given dst has room. A `from` below the base clamps forward to
// it, so next shows the gap; limit <= 0 is a no-op returning from.
func (s *Spool) FetchInto(dst []byte, from int64, limit int) (text []byte, rows int, next int64) {
	if limit <= 0 {
		return dst, 0, from
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchLocked(dst, from, limit)
}

func (s *Spool) fetchLocked(dst []byte, from int64, limit int) ([]byte, int, int64) {
	if from < s.base {
		from = s.base
	}
	if from >= s.endLocked() {
		return dst, 0, s.endLocked()
	}
	i := s.head + int(from-s.base)
	j := len(s.ends)
	if j-i > limit {
		j = i + limit
	}
	return append(dst, s.text[s.start(i):s.ends[j-1]]...), j - i, from + int64(j-i)
}

// End returns the offset one past the last logged row.
func (s *Spool) End() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endLocked()
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
