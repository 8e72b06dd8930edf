// Package executor implements the TelegraphCQ Executor process
// (§4.2.2): a small number of Execution Objects (EOs — system threads,
// here goroutines), each hosting non-preemptive Dispatch Units scheduled
// cooperatively. Queries are partitioned into classes by footprint (the
// set of streams/tables they read); queries whose footprints overlap
// share an EO — and therefore one CACQ engine, its grouped filters, and
// its SteMs.
package executor

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/chaos"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/plan"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/telemetry"
	"telegraphcq/internal/tuple"
)

// ClassMode selects how queries map onto Execution Objects (the E10
// experiment sweeps this).
type ClassMode uint8

const (
	// ClassByFootprint groups queries whose footprints overlap (default).
	ClassByFootprint ClassMode = iota
	// ClassSingle runs every query in one EO (the CACQ/PSoup approach
	// the paper moves away from).
	ClassSingle
	// ClassPerQuery gives each query its own EO (no sharing, maximal
	// threads — the other extreme).
	ClassPerQuery
)

func (m ClassMode) String() string {
	switch m {
	case ClassSingle:
		return "single"
	case ClassPerQuery:
		return "per-query"
	default:
		return "footprint"
	}
}

// ExprMode selects how engines evaluate predicates and projections.
type ExprMode uint8

const (
	// ExprCompiled (the default) compiles expressions to register
	// bytecode evaluated over columnar batches, with the interpreter as
	// fallback for anything uncompilable and for error replay.
	ExprCompiled ExprMode = iota
	// ExprInterpreted forces the tree-walking reference interpreter
	// everywhere (the oracle's reference sweep, E12's baseline).
	ExprInterpreted
)

// Options configures an Executor.
type Options struct {
	Mode ClassMode
	// Policy builds the routing policy for each EO's eddy (nil →
	// lottery, seeded deterministically per EO).
	Policy func(seed int64) eddy.Policy
	// QueueCap bounds each EO's ingress queue.
	QueueCap int
	// SubscriptionCap bounds each query's result queue.
	SubscriptionCap int
	// Batch and FixedHops set the adapting-adaptivity knobs on every EO.
	// Batch 0 means "engine default": eoDrainBatch when the compiled
	// path is on (vectorized runs want real batches), 1 otherwise.
	// Batch 1 explicitly disables batching.
	Batch     int
	FixedHops int
	// CompiledExpr selects the expression-evaluation path for every
	// engine this executor creates. The zero value is ExprCompiled.
	CompiledExpr ExprMode
	// Shards gives each EO that many hash-partitioned eddy shards beside
	// its inline catch-all (see shard.go). 0 or 1 means no hash shards:
	// the catch-all on the EO goroutine hosts every query.
	Shards int
	// Metrics receives the executor's telemetry (nil → a private
	// registry; pass a shared one to aggregate with storage etc.).
	Metrics *telemetry.Registry
	// SampleInterval is the period of the system-stream sampler feeding
	// tcq_operators/tcq_queues/tcq_queries (0 → 500ms; <0 disables).
	SampleInterval time.Duration
	// Chaos, when non-nil, injects faults at the executor's Fjord
	// producers (simulated queue-full bursts) and inside EO run loops
	// (operator panics) for robustness testing.
	Chaos *chaos.Injector
}

// Executor owns the EOs and the query table.
type Executor struct {
	cat     *catalog.Catalog
	planner *plan.Planner
	hub     *egress.Hub
	opts    Options
	metrics *telemetry.Registry

	mu          sync.Mutex
	eos         []*execObject
	queries     map[int]*runningQuery
	nextID      int
	fed         map[string]bool // "eoIdx/alias" table loads already done
	closed      bool
	quarantines int64 // EOs retired after an operator panic

	// qstats tracks per-stream QoS shed accounting (stream → *streamQoS).
	qstats sync.Map
	// qosRng draws the Bernoulli trials for sample-policy admission.
	qosMu  sync.Mutex
	qosRng *rand.Rand

	samplerStop chan struct{}
	samplerDone chan struct{}

	// sourceStats, when set, reports wrapper-side source health for the
	// tcq_sources system stream and /metrics (see SetSourceStats).
	sourceStats atomic.Pointer[func() []SourceStat]
	// clusterStats, when set, reports networked-Flux cluster health for
	// the tcq_cluster system stream and /metrics (see SetClusterStats).
	clusterStats atomic.Pointer[func() []ClusterStat]
}

type runningQuery struct {
	id      int
	eo      *execObject
	planned *plan.Planned
	sub     *egress.Subscription
	post    *postProcessor
	err     error // non-nil once the query is quarantined
}

// streamQoS is one stream's overflow accounting: every tuple lost at an
// EO ingress queue under the stream's policy, and every Block wait that
// expired, is counted here. The invariant tests reconcile is
// pushed == delivered-into-engine + shed, exactly.
type streamQoS struct {
	shed          atomic.Int64 // tuples lost (newest shed or oldest evicted)
	blockTimeouts atomic.Int64 // Block waits that gave up
}

// qstatsFor returns (creating on first use) a stream's QoS counters.
func (x *Executor) qstatsFor(stream string) *streamQoS {
	if v, ok := x.qstats.Load(stream); ok {
		return v.(*streamQoS)
	}
	v, _ := x.qstats.LoadOrStore(stream, &streamQoS{})
	return v.(*streamQoS)
}

// StreamShed returns tuples lost at EO ingress for one stream (QoS).
func (x *Executor) StreamShed(stream string) int64 {
	return x.qstatsFor(stream).shed.Load()
}

// New builds an executor over a catalog.
func New(cat *catalog.Catalog, opts Options) *Executor {
	if opts.QueueCap <= 0 {
		opts.QueueCap = 4096
	}
	if opts.SubscriptionCap <= 0 {
		opts.SubscriptionCap = 4096
	}
	if opts.Policy == nil {
		opts.Policy = func(seed int64) eddy.Policy { return eddy.NewLottery(seed) }
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	x := &Executor{
		cat:     cat,
		planner: plan.New(cat),
		hub:     egress.NewHub(),
		opts:    opts,
		metrics: opts.Metrics,
		queries: map[int]*runningQuery{},
		fed:     map[string]bool{},
		qosRng:  rand.New(rand.NewSource(1)),
	}
	x.registerCollectors()
	x.registerSystemStreams()
	if opts.SampleInterval >= 0 {
		iv := opts.SampleInterval
		if iv == 0 {
			iv = 500 * time.Millisecond
		}
		x.startSampler(iv)
	}
	return x
}

// Hub exposes result routing (the server wires spools through it).
func (x *Executor) Hub() *egress.Hub { return x.hub }

// Metrics exposes the telemetry registry the executor reports into.
func (x *Executor) Metrics() *telemetry.Registry { return x.metrics }

// ----------------------------------------------------------------- EO

type ctlKind uint8

const (
	ctlAddQuery ctlKind = iota
	ctlRemoveQuery
	ctlLoadTable
	ctlBarrier
	ctlStats
)

// envelope is the one control message: executor → EO over the control
// Fjord, and EO → hash shard over the shard's command channel.
type envelope struct {
	ctl   ctlKind
	query *cacq.Query
	part  *plan.Partition // shard-placement contract (ctlAddQuery)
	feeds []plan.Feed     // the query's stream feeds (ctlAddQuery)
	qid   int
	rows  []*tuple.Tuple // table load
	reply chan ctlReply
}

// ctlReply answers one envelope.
type ctlReply struct {
	err   error
	moved int         // ctlBarrier on a hash shard: tuples moved this round
	snap  *eoSnapshot // ctlStats; nil when the EO is shutting down or dead
}

// eoDrainBatch bounds how many data tuples one engine quantum admits.
const eoDrainBatch = 256

// delivery is one result row buffered during an engine quantum; the EO
// flushes deliveries to the hub in per-query batches after each Run.
type delivery struct {
	id  int
	row *tuple.Tuple
}

// execObject is the executor-visible half of one Execution Object: its
// two ingress Fjord edges — a control queue of envelopes (multi-writer:
// Submit, Cancel, Barrier, telemetry scrapes) and a data queue of bare
// tuples with batch endpoints, drained eoDrainBatch at a time so the
// per-tuple queue cost amortizes — plus the placement bookkeeping kept
// under x.mu. Everything the EO goroutine owns (the scheduler loop, the
// route table, the engine hosts) lives in group; see shard.go.
type execObject struct {
	idx     int
	ctl     *fjord.Counted[envelope]     // control edge (rare, multi-writer)
	data    *fjord.Counted[*tuple.Tuple] // data edge (multi-writer fan-in)
	wake    chan struct{}                // one-slot token: control is queued (see notify)
	feeds   map[string]bool              // streams routed to this EO (readers; under x.mu)
	sources map[string]bool              // footprint covered by this EO (placeLocked; under x.mu)
	done    chan struct{}
	x       *Executor
	group   *shardGroup

	shed atomic.Int64 // tuples dropped because the EO queue was full
	dead atomic.Bool  // quarantined after an operator panic
}

// shardCount reports how many eddy shards host the EO's partitionable
// queries (1 = no hash shards: the inline catch-all hosts everything).
func (eo *execObject) shardCount() int {
	if eo.group.n == 0 {
		return 1
	}
	return eo.group.n
}

func (x *Executor) newEO() *execObject {
	eo := &execObject{
		idx:     len(x.eos),
		ctl:     fjord.Count(fjord.NewPush[envelope](256)),
		data:    fjord.Count(fjord.NewPush[*tuple.Tuple](x.opts.QueueCap)),
		wake:    make(chan struct{}, 1),
		feeds:   map[string]bool{},
		sources: map[string]bool{},
		done:    make(chan struct{}),
		x:       x,
	}
	eo.group = newShardGroup(eo, x.opts.Shards)
	x.eos = append(x.eos, eo)
	go eo.group.run()
	return eo
}

// engineBatch resolves the effective eddy batch size: an explicit Batch
// wins; otherwise compiled engines default to full drain batches so the
// vectorized path has runs to work on, and interpreted engines stay
// tuple-at-a-time (the historical default).
func (o *Options) engineBatch(compiled bool) int {
	if o.Batch > 0 {
		return o.Batch
	}
	if compiled {
		return eoDrainBatch
	}
	return 1
}

// notify posts the EO's wake token so an idle EO handles queued control
// now rather than at its next idle tick. The send never blocks: a token
// already pending covers this post, because the EO drains the control
// queue after every wake, and a token posted while it is busy only
// costs it one extra turn.
func (eo *execObject) notify() {
	select {
	case eo.wake <- struct{}{}:
	default:
	}
}

// ask round-trips one control message through the EO's control queue.
func (eo *execObject) ask(env envelope) ctlReply {
	env.reply = make(chan ctlReply, 1)
	if err := eo.ctl.Enqueue(env); err != nil {
		return ctlReply{err: err}
	}
	eo.notify()
	select {
	case r := <-env.reply:
		return r
	case <-eo.done:
		// The EO exited between enqueue and dispatch; take the reply if
		// it raced ahead of done.
		select {
		case r := <-env.reply:
			return r
		default:
			return ctlReply{err: fjord.ErrClosed}
		}
	}
}

// ErrQuarantined reports that a query was retired because its Execution
// Object panicked.
var ErrQuarantined = errors.New("executor: query quarantined after operator panic")

// failEO is the executor-side bookkeeping of a quarantine: count it,
// mark the EO's queries errored, and deliver the failure to their
// subscribers.
func (x *Executor) failEO(eo *execObject, err error) {
	x.mu.Lock()
	x.quarantines++
	var failed []*runningQuery
	for _, rq := range x.queries {
		if rq.eo == eo && rq.err == nil {
			rq.err = err
			failed = append(failed, rq)
		}
	}
	x.mu.Unlock()
	for _, rq := range failed {
		x.hub.Fail(rq.id, err)
	}
}

// QueryErr returns the quarantine error of a query (nil while healthy;
// an error wrapping ErrQuarantined once its EO panicked).
func (x *Executor) QueryErr(id int) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if rq, ok := x.queries[id]; ok {
		return rq.err
	}
	return fmt.Errorf("executor: unknown query %d", id)
}

// Quarantines returns how many EOs have been retired after panics.
func (x *Executor) Quarantines() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.quarantines
}

// --------------------------------------------------------------- submit

// Submit parses nothing: it takes a parsed SELECT, plans it, picks an
// EO by footprint, registers the query, and returns its id and a result
// subscription.
func (x *Executor) Submit(sel *sql.Select) (int, *egress.Subscription, error) {
	return x.submit(sel, true)
}

// SubmitDetached registers a query with no single-consumer push
// subscription: results reach only the query's spool and/or fan-out
// tree. This is the submission path for SUBSCRIBE SELECT, where N
// clients share one encode-once delivery point instead of one SPSC
// ring.
func (x *Executor) SubmitDetached(sel *sql.Select) (int, error) {
	id, _, err := x.submit(sel, false)
	return id, err
}

func (x *Executor) submit(sel *sql.Select, attach bool) (int, *egress.Subscription, error) {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return 0, nil, fmt.Errorf("executor: closed")
	}
	id := x.nextID
	x.nextID++
	x.mu.Unlock()

	planned, err := x.planner.PlanSelect(sel, id)
	if err != nil {
		return 0, nil, err
	}

	// Bind ST so ST-relative windows start "now": the current wall-clock
	// millisecond for PHYSICAL windows, else the maximum current sequence
	// across the query's streams.
	var st int64
	if planned.CQ.Window != nil && planned.CQ.Window.Domain == tuple.PhysicalTime {
		st = time.Now().UnixMilli()
	} else {
		for _, f := range planned.Feeds {
			src, err := x.cat.Lookup(f.Stream)
			if err == nil && src.CurSeq() > st {
				st = src.CurSeq()
			}
		}
	}
	planned.CQ.StartTime = st

	x.mu.Lock()
	eo := x.placeLocked(planned)
	// Route the feeds to the EO before the query registers so data
	// admitted concurrently reaches it; the EO recycles tuples of streams
	// its route table does not name yet.
	for _, f := range planned.Feeds {
		eo.feeds[f.Stream] = true
		eo.sources[f.As] = true
		eo.sources[f.Stream] = true
	}
	for _, tl := range planned.Tables {
		eo.sources[tl.As] = true
		eo.sources[tl.Table] = true
	}
	x.mu.Unlock()

	// Add the query synchronously.
	if err := eo.ask(envelope{ctl: ctlAddQuery, query: planned.CQ, part: planned.Partition, feeds: planned.Feeds}).err; err != nil {
		return 0, nil, err
	}

	// Load static tables (once per EO/alias).
	for _, tl := range planned.Tables {
		key := fmt.Sprintf("%d/%s", eo.idx, tl.As)
		x.mu.Lock()
		loaded := x.fed[key]
		x.fed[key] = true
		x.mu.Unlock()
		if loaded {
			continue
		}
		src, err := x.cat.Lookup(tl.Table)
		if err != nil {
			return 0, nil, err
		}
		rows := src.Rows()
		renamed := make([]*tuple.Tuple, len(rows))
		for i, r := range rows {
			rr := r.Clone()
			if tl.As != tl.Table {
				rr.Schema = r.Schema.RenameShared(tl.As)
			}
			renamed[i] = rr
		}
		if err := eo.ask(envelope{ctl: ctlLoadTable, rows: renamed}).err; err != nil {
			return 0, nil, err
		}
	}

	var sub *egress.Subscription
	if attach {
		sub = x.hub.Subscribe(id, x.opts.SubscriptionCap)
	}
	rq := &runningQuery{id: id, eo: eo, planned: planned, sub: sub}
	if planned.Distinct || len(planned.OrderBy) > 0 || planned.Limit > 0 {
		rq.post = newPostProcessor(planned)
	}
	x.mu.Lock()
	x.queries[id] = rq
	x.mu.Unlock()
	return id, sub, nil
}

// placeLocked picks (or creates) the EO for a planned query. Quarantined
// EOs are never placement candidates.
func (x *Executor) placeLocked(p *plan.Planned) *execObject {
	switch x.opts.Mode {
	case ClassSingle:
		for _, eo := range x.eos {
			if !eo.dead.Load() {
				return eo
			}
		}
		return x.newEO()
	case ClassPerQuery:
		return x.newEO()
	default:
		// Footprint overlap: first live EO sharing any source.
		fp := p.CQ.Footprint()
		for _, eo := range x.eos {
			if eo.dead.Load() {
				continue
			}
			for _, s := range fp {
				if eo.sources[s] {
					return eo
				}
			}
		}
		return x.newEO()
	}
}

// Cancel removes a standing query and closes its subscription.
func (x *Executor) Cancel(id int) error {
	x.mu.Lock()
	rq, ok := x.queries[id]
	if ok {
		delete(x.queries, id)
	}
	x.mu.Unlock()
	if !ok {
		return fmt.Errorf("executor: unknown query %d", id)
	}
	// A quarantined EO no longer accepts control traffic; its engine is
	// gone, so there is nothing to remove — just release the consumers.
	if !rq.eo.dead.Load() {
		if err := rq.eo.ask(envelope{ctl: ctlRemoveQuery, qid: id}).err; err != nil && !rq.eo.dead.Load() && !errors.Is(err, ErrQuarantined) {
			return err
		}
	}
	if rq.post != nil {
		for _, r := range rq.post.flush() {
			x.hub.Deliver(id, r)
		}
	}
	x.hub.Close(id)
	return nil
}

// Queries returns the ids of standing queries, sorted.
func (x *Executor) Queries() []int {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]int, 0, len(x.queries))
	for id := range x.queries {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Shed returns the total tuples dropped at EO ingress queues (QoS).
func (x *Executor) Shed() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	var n int64
	for _, eo := range x.eos {
		n += eo.shed.Load()
	}
	return n
}

// EOCount returns the number of Execution Objects.
func (x *Executor) EOCount() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.eos)
}

// ---------------------------------------------------------------- push

// Push stamps one tuple of a stream with the next sequence number and
// routes it to every EO reading the stream. Returns the assigned
// sequence.
func (x *Executor) Push(stream string, vals []tuple.Value) (int64, error) {
	return x.admit([]string{stream}, [][]tuple.Value{vals}, -1, time.Now(), nil)
}

// PushAt delivers a tuple carrying a source-assigned logical timestamp
// (e.g. the trading day); timestamps may repeat but not regress.
func (x *Executor) PushAt(stream string, seq int64, vals []tuple.Value) error {
	_, err := x.admit([]string{stream}, [][]tuple.Value{vals}, seq, time.Now(), nil)
	return err
}

// PushStamped delivers a tuple with a caller-controlled wall clock — the
// seam deterministic harnesses (tcqcheck) use to drive physical-time
// windows reproducibly. A zero wall admits the tuple untimestamped: it
// has no physical coordinate and belongs to no physical window.
func (x *Executor) PushStamped(stream string, wall time.Time, vals []tuple.Value) (int64, error) {
	return x.admit([]string{stream}, [][]tuple.Value{vals}, -1, wall, nil)
}

// PushBatch stamps a batch of tuples of one stream with consecutive
// sequence numbers and moves the whole slice to every reading EO with a
// single queue operation each. Returns the last assigned sequence. A
// row of the wrong arity fails the batch before any row is admitted. A
// full EO queue sheds the unaccepted suffix (QoS, as with Push).
func (x *Executor) PushBatch(stream string, rows [][]tuple.Value) (int64, error) {
	return x.admit([]string{stream}, rows, -1, time.Now(), nil)
}

// PushRows admits one Wrapper read: rows[i] belongs to streams[i], the
// streams may be mixed, and each reading EO receives its rows in arrival
// order. The rows share one wall stamp. A row that cannot be admitted
// (unknown stream, a table, wrong arity) goes to refuse and the rest are
// admitted. The values are copied; the caller keeps the slices.
func (x *Executor) PushRows(streams []string, rows [][]tuple.Value, refuse func(i int, err error)) {
	_, _ = x.admit(streams, rows, -1, time.Now(), refuse)
}

// admit is the one admission body behind every Push variant. Row i
// belongs to streams[i], or to streams[0] when that is the only entry.
// Each distinct stream's source and readers are looked up once, and
// every row is checked before any tuple is drawn from the pool or any
// sequence number is taken. A bad row goes to refuse or, when refuse is
// nil, fails the whole call. seq >= 0 is a source-assigned timestamp
// for a one-row call. Each reading EO receives its rows, in arrival
// order, with one TryEnqueueBatch; the suffix that does not fit goes
// through offer under the row's stream's overflow policy. Returns the
// last sequence number assigned.
func (x *Executor) admit(streams []string, rows [][]tuple.Value, seq int64, wall time.Time, refuse func(int, error)) (int64, error) {
	type feed struct {
		name string
		src  *catalog.Source
		err  error
		eos  []*execObject
	}
	type admission struct {
		feed int // -1: refused
		seq  int64
	}
	var feedBuf [4]feed
	var admBuf [8]admission
	feeds, adm := feedBuf[:0], slices.Grow(admBuf[:0], len(rows))
	for i, vals := range rows {
		name := streams[min(i, len(streams)-1)]
		fi := slices.IndexFunc(feeds, func(f feed) bool { return f.name == name })
		if fi < 0 {
			f := feed{name: name}
			if f.src, f.err = x.cat.Lookup(name); f.err == nil && f.src.Kind != catalog.KindStream {
				f.err = fmt.Errorf("executor: %s is a table; use INSERT", name)
			} else if f.err == nil {
				// The catalog's copy of the name: the QoS books may keep
				// it, and name may be a slice of a whole wire line.
				f.name, f.eos = f.src.Name, x.readers(name)
			}
			fi, feeds = len(feeds), append(feeds, f)
		}
		err := feeds[fi].err
		if err == nil && len(vals) != feeds[fi].src.Schema.Arity() {
			err = fmt.Errorf("executor: %s expects %d values, got %d", name, feeds[fi].src.Schema.Arity(), len(vals))
		}
		if err != nil {
			if refuse == nil {
				return 0, err
			}
			refuse(i, err)
			fi = -1
		}
		adm = append(adm, admission{feed: fi})
	}
	if seq >= 0 {
		if err := feeds[0].src.AdvanceTo(seq); err != nil {
			return 0, err
		}
	}
	last := max(seq, 0)
	for i := range adm {
		if adm[i].feed >= 0 && seq < 0 {
			last = feeds[adm[i].feed].src.NextSeq()
		}
		adm[i].seq = last
	}
	// Every reading EO gets its own pooled copy of each row: an EO may
	// recycle a tuple the moment it is enqueued, so no copy is shared.
	var doneBuf [4]*execObject
	done, batch := doneBuf[:0], make([]*tuple.Tuple, 0, len(rows))
	for _, f := range feeds {
		for _, eo := range f.eos {
			if slices.Contains(done, eo) {
				continue
			}
			done, batch = append(done, eo), batch[:0]
			for i, a := range adm {
				if a.feed >= 0 && slices.Contains(feeds[a.feed].eos, eo) {
					t := tuple.NewPooled(feeds[a.feed].src.Schema)
					t.Values = append(t.Values, rows[i]...)
					t.TS = tuple.Timestamp{Seq: a.seq, Wall: wall}
					batch = append(batch, t)
				}
			}
			// Under chaos every tuple takes the policy path, so each
			// draws its own simulated queue-full burst.
			n := 0
			if x.opts.Chaos == nil {
				n = eo.data.TryEnqueueBatch(batch)
			}
			for _, t := range batch[n:] {
				f := feeds[slices.IndexFunc(feeds, func(f feed) bool { return f.err == nil && f.src.Schema == t.Schema })]
				x.offer(eo, t, f.name, f.src.QoS())
			}
		}
	}
	return last, nil
}

// readers snapshots the live EOs fed by a stream (a quarantined EO
// accepts no more data; its tuples would be recycled unprocessed).
func (x *Executor) readers(stream string) []*execObject {
	x.mu.Lock()
	defer x.mu.Unlock()
	eos := make([]*execObject, 0, len(x.eos))
	for _, eo := range x.eos {
		if eo.feeds[stream] && !eo.dead.Load() {
			eos = append(eos, eo)
		}
	}
	return eos
}

// offer admits one tuple into one EO's ingress queue under the stream's
// overflow policy, keeping the QoS books: every lost tuple (the shed
// newcomer or the evicted oldest) increments exactly one shed count, so
// pushed == entered-engine + shed reconciles exactly.
func (x *Executor) offer(eo *execObject, t *tuple.Tuple, stream string, qos fjord.QoS) bool {
	opts := fjord.OfferOpts{QoS: qos}
	if qos.Policy == fjord.Sample {
		opts.Rand = x.qosDraw
	}
	if x.opts.Chaos != nil {
		opts.Full = x.opts.Chaos.QueueFull
	}
	res := fjord.Offer[*tuple.Tuple](eo.data, t, opts)
	qs := x.qstatsFor(stream)
	if res.DidEvict {
		tuple.Recycle(res.Evicted)
		eo.shed.Add(1)
		qs.shed.Add(1)
	}
	if !res.Accepted {
		tuple.Recycle(t)
		eo.shed.Add(1)
		qs.shed.Add(1)
		if res.TimedOut {
			qs.blockTimeouts.Add(1)
		}
		return false
	}
	return true
}

// qosDraw serializes sample-policy admission draws on a seeded PRNG.
func (x *Executor) qosDraw() float64 {
	x.qosMu.Lock()
	defer x.qosMu.Unlock()
	return x.qosRng.Float64()
}

// Barrier waits until every EO has drained its queue and run its engine
// to quiescence (tests and benchmarks synchronize on it).
func (x *Executor) Barrier() error {
	x.mu.Lock()
	eos := append([]*execObject(nil), x.eos...)
	x.mu.Unlock()
	for _, eo := range eos {
		if eo.dead.Load() {
			continue // a quarantined EO is permanently quiescent
		}
		// An EO that died while the barrier was queued or running is
		// quiescent too.
		if err := eo.ask(envelope{ctl: ctlBarrier}).err; err != nil && !eo.dead.Load() && !errors.Is(err, ErrQuarantined) {
			return err
		}
	}
	return nil
}

// deliverBatch applies per-query post-processing then hands a batch of
// rows for one query to the hub. It owns the rows (the hub recycles or
// retains them) but not the slice.
func (x *Executor) deliverBatch(id int, rows []*tuple.Tuple) {
	x.mu.Lock()
	rq := x.queries[id]
	x.mu.Unlock()
	if rq == nil {
		for _, r := range rows {
			tuple.Recycle(r) // query cancelled mid-quantum
		}
		return
	}
	if rq.post != nil {
		done := false
		for _, row := range rows {
			out, d := rq.post.process(row)
			for _, r := range out {
				x.hub.Deliver(id, r)
			}
			if d {
				done = true
			}
		}
		if done {
			go func() { _ = x.Cancel(id) }()
		}
		return
	}
	x.hub.DeliverBatch(id, rows)
}

// Close shuts every EO down.
func (x *Executor) Close() {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.closed = true
	eos := append([]*execObject(nil), x.eos...)
	stop, done := x.samplerStop, x.samplerDone
	x.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	for _, eo := range eos {
		eo.data.Close()
		eo.ctl.Close()
		eo.notify()
		<-eo.done
	}
	x.hub.CloseAll()
}

// ------------------------------------------------------ post-processing

// juggleWindow is the reorder buffer depth for ORDER BY delivery.
const juggleWindow = 64

// postProcessor applies DISTINCT / ORDER BY / LIMIT on the delivery
// path. A full sort of an unbounded stream is impossible, so ORDER BY is
// executed as the paper executes prioritized delivery: a Juggle buffer
// (online reordering, [RRH99]) holds up to juggleWindow rows and always
// releases the best-ranked one first. With LIMIT n, the query completes
// after n rows have been released in that prioritized order.
type postProcessor struct {
	dup    *operator.DupElim
	limit  int64
	sent   int64
	juggle *operator.Juggle
}

func newPostProcessor(p *plan.Planned) *postProcessor {
	pp := &postProcessor{limit: p.Limit}
	if p.Distinct {
		pp.dup = operator.NewDupElim("distinct")
	}
	if len(p.OrderBy) > 0 {
		// Priority: the first sort key; DESC means larger-first, which is
		// the Juggle's native order, so ASC negates.
		key := p.OrderBy[0]
		pri := key.Expr
		if !key.Desc {
			pri = expr.Neg(pri)
		}
		pp.juggle = operator.NewJuggle("orderby", pri, juggleWindow)
	}
	return pp
}

// process returns rows to deliver now and whether the query is complete
// (LIMIT reached).
func (pp *postProcessor) process(row *tuple.Tuple) ([]*tuple.Tuple, bool) {
	if pp.dup != nil {
		out, err := pp.dup.Process(row, nil)
		if err != nil || out == operator.Drop {
			tuple.Recycle(row) // duplicate retired here
			return nil, false
		}
	}
	var ready []*tuple.Tuple
	if pp.juggle != nil {
		// Buffer; the Juggle releases the best row once it is full.
		if _, err := pp.juggle.Process(row, func(t *tuple.Tuple) {
			ready = append(ready, t)
		}); err != nil {
			ready = append(ready, row) // unorderable row: pass through
		}
	} else {
		ready = []*tuple.Tuple{row}
	}
	return pp.takeLimited(ready)
}

func (pp *postProcessor) takeLimited(rows []*tuple.Tuple) ([]*tuple.Tuple, bool) {
	if pp.limit <= 0 {
		return rows, false
	}
	if pp.sent >= pp.limit {
		for _, r := range rows {
			tuple.Recycle(r)
		}
		return nil, true
	}
	if remaining := pp.limit - pp.sent; int64(len(rows)) > remaining {
		for _, r := range rows[remaining:] {
			tuple.Recycle(r)
		}
		rows = rows[:remaining]
	}
	pp.sent += int64(len(rows))
	return rows, pp.sent >= pp.limit
}

// flush drains the reorder buffer (stream end or cancellation).
func (pp *postProcessor) flush() []*tuple.Tuple {
	if pp.juggle == nil {
		return nil
	}
	var rows []*tuple.Tuple
	_ = pp.juggle.Flush(func(t *tuple.Tuple) { rows = append(rows, t) })
	out, _ := pp.takeLimited(rows)
	return out
}
