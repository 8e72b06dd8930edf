// One engine host, one EO shape. Every Execution Object is a router, an
// inline catch-all and N ≥ 0 hash shards:
//
//   - eddyShard is the only type that owns a CACQ engine's life cycle
//     (create + knobs, admit with alias fan-out/rename, quantum + flush,
//     add/remove/load/quiesce/stats, teardown).
//   - The catch-all host runs inline on the EO goroutine: the EO drains
//     its control and data Fjords, admits pinned traffic straight into the
//     catch-all in global arrival order, runs its quantum and hands its
//     deliveries directly to the Hub seam. With N = 0 that is the whole
//     EO — one goroutine, DequeueBatch → admit → Engine.Run →
//     deliverBatch — and every query is pinned.
//   - Hash shards (Options.Shards ≥ 2) each get their own goroutine, an
//     SPSC ingress ring fed by the EO, an SPSC egress ring the EO drains
//     in fixed shard order, and a row/column of an N×N SPSC exchange mesh.
//
// Queries whose joins partition cleanly (plan.Partition.Keys) register
// on every hash shard; the EO hash-partitions their streams by the
// dominant join key (round-robin for keyless streams), so tuples that
// can ever join meet on one shard. When an alias's join key differs from
// the stream's ingress partitioning (a self-join on different columns,
// or a second query keying the stream differently), the arrival shard
// *repartitions mid-plan*: it clones the tuple and moves it through the
// exchange to the shard its key hashes to. Pinned queries (aggregates,
// band/Cartesian joins, table readers, conflicting keys) live on the
// catch-all, which sees every tuple of its streams in arrival order and
// therefore behaves exactly like an unsharded engine.
//
// Windowed-join correctness across shards: the engine implements join
// windows by SteM eviction against each stream's sequence high-water
// mark. A hash shard only sees its hash class of a stream, so its local
// high-water mark would lag and stale state would answer probes an
// unsharded engine would never match. The EO therefore maintains a
// per-stream frontier (it routes every tuple, so it knows the global
// maximum) published through the route table; each hash shard applies it
// via Engine.AdvanceSeq before admitting work. Under barrier discipline
// the horizons are exact; between barriers they are within the in-flight
// batch — the same indeterminacy eddy routing order already admits.
package executor

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/plan"
	"telegraphcq/internal/tuple"
)

const (
	// shardIngressCap bounds each hash shard's EO→shard SPSC ring.
	shardIngressCap = 4096
	// exchangeRingCap bounds each per-pair exchange ring.
	exchangeRingCap = 1024
	// egressRingCap bounds each hash shard's shard→EO delivery ring.
	egressRingCap = 8192
	// exchangeFlushBatch is the outbound buffer size that forces a flush
	// mid-quantum (buffers always flush at quantum end and barriers).
	exchangeFlushBatch = 64
)

// idleSpins is how many consecutive empty turns a scheduler loop spins
// through before it waits.
const idleSpins = 8

// idleTick bounds how long an idle scheduler loop waits before it looks
// at its data rings again. Control never waits it out (see idler). A
// group reads it once, at creation; tests raise it to prove that every
// control round-trip is woken rather than ticked.
var idleTick = 200 * time.Microsecond

// idler is the one idle policy of every scheduler loop in the package.
// After more than idleSpins turns that moved nothing, the loop waits in
// one select on its control wake source (the EO's wake token, a hash
// shard's command channel), its group's failure, and the idle tick.
// Data producers never wake a loop: at paced rates the tick is what
// batches rows into quanta, and a wake per producer burst costs more
// CPU per row than it saves latency (EXPERIMENTS.md, "Control wakes").
type idler struct {
	tick  time.Duration
	empty int
	timer *time.Timer
}

// rest records whether the turn moved anything and reports whether the
// loop should now wait.
func (w *idler) rest(progressed bool) bool {
	if progressed {
		w.empty = 0
		return false
	}
	w.empty++
	return w.empty > idleSpins
}

// after arms the idle tick and returns its channel. go.mod's language
// version keeps the pre-1.23 timer semantics, where Reset does not drain
// a tick that fired unreceived, so Stop and drain first.
func (w *idler) after() <-chan time.Time {
	if w.timer == nil {
		w.timer = time.NewTimer(w.tick)
		return w.timer.C
	}
	if !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
	w.timer.Reset(w.tick)
	return w.timer.C
}

// ------------------------------------------------------------ route table

// routeTable is the EO-built, atomically published partitioning plan,
// rebuilt whenever a query is added or removed: per stream, the aliases
// each tier admits it under, the ingress hash key, and the sequence
// frontier. The EO routes by it; hash shards read it lock-free.
type routeTable struct {
	streams  map[string]*streamRoute
	frontier []*streamFrontier // streams with hash-tier readers
}

// streamFrontier is one stream's sequence high-water mark as observed by
// the EO (the sole writer); hash shards load it to keep their eviction
// horizons on the global frontier.
type streamFrontier struct {
	stream  string
	aliases []string // hash-tier dataflow names (AdvanceSeq targets)
	seq     atomic.Int64
}

type streamRoute struct {
	stream   string
	dominant int          // ingress hash column; -1 = round-robin
	hash     []aliasRoute // aliases read by shardable queries (hash shards)
	pin      []aliasRoute // aliases read by pinned queries (catch-all)
	front    *streamFrontier
}

type aliasRoute struct {
	alias  string
	keyIdx int // partition key column; -1 = stay on the admitting host
}

// withAlias returns rs with alias present; a non-negative keyIdx sets
// the alias's partition key (conflicting keys were pinned at add time,
// so shardable queries agree on every alias's key).
func withAlias(rs []aliasRoute, alias string, keyIdx int) []aliasRoute {
	for i := range rs {
		if rs[i].alias == alias {
			if keyIdx >= 0 {
				rs[i].keyIdx = keyIdx
			}
			return rs
		}
	}
	return append(rs, aliasRoute{alias: alias, keyIdx: keyIdx})
}

// shardQuery is the EO's record of one registered query.
type shardQuery struct {
	part   *plan.Partition
	feeds  []plan.Feed
	pinned bool
}

// ------------------------------------------------------------ shard group

// shardGroup is the EO-goroutine-owned half of an Execution Object: the
// scheduler loop, the route table, the inline catch-all and the hash
// shards. All fields except the explicitly synchronized ones are touched
// only by the EO goroutine.
type shardGroup struct {
	eo    *execObject
	n     int                       // hash shards; 0 when Options.Shards ≤ 1
	tick  time.Duration             // idleTick at creation
	pin   *eddyShard                // the catch-all (id n), hosted inline
	hash  []*eddyShard              // hash shards 0..n-1, one goroutine each
	mesh  *fjord.Mesh[*tuple.Tuple] // n×n exchange among the hash shards
	route atomic.Pointer[routeTable]

	rr      map[string]int // per-stream round-robin cursors
	order   []int          // query registration order (stable rebuilds)
	records map[int]*shardQuery

	// Failure signalling: the first panic (on the EO goroutine or in a
	// hash shard) records its cause and closes failed; hash shards exit
	// on it and the EO quarantines the group. cause and stack are written
	// once, before failed closes.
	failOnce sync.Once
	failed   chan struct{}
	cause    any
	stack    []byte

	// EO-goroutine scratch: the DequeueBatch buffer for eo.data, the
	// egress drain buffer, and the per-query row slice reused while
	// delivering runs.
	drain     []*tuple.Tuple
	egScratch []delivery
	rowBuf    []*tuple.Tuple
}

// shardStats are one host's plain counters (owner-written; snapshotted
// on the owning goroutine, never read in place).
type shardStats struct {
	Ingress int64 // tuples delivered by the EO router
	FwdOut  int64 // tuples repartitioned to siblings via the exchange
	FwdIn   int64 // tuples received from siblings via the exchange
	FwdDrop int64 // forwards dropped (destination ring closed)
	Egress  int64 // result rows handed back to the EO
}

func newShardGroup(eo *execObject, shards int) *shardGroup {
	n := shards
	if n < 2 {
		n = 0
	}
	g := &shardGroup{
		eo:        eo,
		n:         n,
		tick:      idleTick,
		mesh:      fjord.NewMesh[*tuple.Tuple](n, exchangeRingCap),
		rr:        map[string]int{},
		records:   map[int]*shardQuery{},
		failed:    make(chan struct{}),
		drain:     make([]*tuple.Tuple, eoDrainBatch),
		egScratch: make([]delivery, eoDrainBatch),
	}
	g.route.Store(&routeTable{streams: map[string]*streamRoute{}})
	g.pin = g.newShard(n)
	g.pin.flush = g.deliverRuns
	for i := 0; i < n; i++ {
		sh := g.newShard(i)
		sh.flush = sh.publish
		sh.in = fjord.NewSPSC[*tuple.Tuple](shardIngressCap)
		// One command is in flight per shard (askShard waits for the
		// reply), so a one-slot buffer never blocks the EO. It is also
		// the shard's wake source, and stopShards closes it.
		sh.cmd = make(chan envelope, 1)
		sh.egress = fjord.NewSPSC[delivery](egressRingCap)
		sh.inbound = g.mesh.Inbound(i, nil)
		sh.done = make(chan struct{})
		sh.drain = make([]*tuple.Tuple, eoDrainBatch)
		sh.xdrain = make([]*tuple.Tuple, eoDrainBatch)
		sh.fwd = make([][]*tuple.Tuple, n)
		sh.applied = map[string]int64{}
		g.hash = append(g.hash, sh)
	}
	for _, sh := range g.hash {
		go sh.loop()
	}
	return g
}

// newShard creates one engine host with the executor's knobs applied.
func (g *shardGroup) newShard(id int) *eddyShard {
	opts := &g.eo.x.opts
	sh := &eddyShard{id: id, g: g}
	sh.engine = cacq.NewEngine(opts.Policy(int64(g.eo.idx)*64+int64(id)+1), func(id int, row *tuple.Tuple) {
		sh.out = append(sh.out, delivery{id: id, row: row})
	})
	compiled := opts.CompiledExpr == ExprCompiled
	sh.engine.SetCompiled(compiled)
	sh.engine.Eddy().BatchSize = opts.engineBatch(compiled)
	if opts.FixedHops > 1 {
		sh.engine.Eddy().FixedHops = opts.FixedHops
	}
	return sh
}

// run is the EO scheduler loop: drain control, drain a batch of data
// tuples, give the catch-all its quantum, merge hash-shard egress, wait
// for a control wake or the idle tick when nothing is queued. Control
// drains first so cancellation and barriers are not starved by a full
// data queue.
func (g *shardGroup) run() {
	defer close(g.eo.done)
	w := idler{tick: g.tick}
	for !g.step(&w) {
	}
}

// step is one scheduler turn; it reports whether the loop should exit.
// A panic anywhere inside — the catch-all's quantum, operator code, a
// control handler — unwinds to here and quarantines the EO (§2.4
// motivation: partial failure must not take the engine down); a panic
// in a hash shard reaches the same path through g.failed.
func (g *shardGroup) step(w *idler) (exit bool) {
	eo := g.eo
	defer func() {
		if r := recover(); r != nil {
			g.fail(r, debug.Stack())
			g.quarantine()
			exit = true
		}
	}()
	if g.isFailed() {
		g.quarantine()
		return true
	}
	moved := 0
	if env, ok := eo.ctl.TryDequeue(); ok {
		g.control(env)
		moved++
	} else if n := eo.data.DequeueBatch(g.drain); n > 0 {
		g.routeBatch(g.drain[:n])
		_ = g.pin.quantum()
		moved += n
	}
	moved += g.drainEgress(g.deliverRuns)
	if moved == 0 {
		if eo.ctl.Closed() {
			g.shutdown()
			return true
		}
		// Idle dispatch: pending admission batches.
		_ = g.pin.quantum()
	}
	if w.rest(moved > 0) {
		select {
		case <-eo.wake:
		case <-g.failed:
		case <-w.after():
		}
	}
	return false
}

// fail records the first failure and signals it; later calls are no-ops.
func (g *shardGroup) fail(cause any, stack []byte) {
	g.failOnce.Do(func() {
		g.cause, g.stack = cause, stack
		close(g.failed)
	})
}

func (g *shardGroup) isFailed() bool {
	select {
	case <-g.failed:
		return true
	default:
		return false
	}
}

// failErr is the group's quarantine error; valid once failed is closed.
func (g *shardGroup) failErr() error {
	return fmt.Errorf("%w: EO %d: %v", ErrQuarantined, g.eo.idx, g.cause)
}

// routeBatch routes one drained ingress batch. A tuple of a stream with
// shardable readers goes to its dominant-key hash shard (round-robin
// when keyless); a stream with pinned readers is additionally admitted
// into the catch-all — right here, never via the hash shards, because
// the EO goroutine is the only point that sees the stream's global
// arrival order and the catch-all's tuple-order-driven state (aggregate
// window closes, probe ordering, LIMIT prefixes) depends on it.
func (g *shardGroup) routeBatch(batch []*tuple.Tuple) {
	rt := g.route.Load()
	for i, t := range batch {
		batch[i] = nil
		sr := rt.streams[t.Schema.Sources[0]]
		if sr == nil {
			tuple.Recycle(t) // no query reads this stream here (anymore)
			continue
		}
		pinT := t
		if len(sr.hash) > 0 {
			if len(sr.pin) > 0 {
				// Clone before the hash shard can retire the original.
				pinT = t.Clone()
			}
			if t.TS.Seq > sr.front.seq.Load() {
				sr.front.seq.Store(t.TS.Seq) // the EO is the sole writer
			}
			var dest int
			if sr.dominant >= 0 {
				dest = int(t.Values[sr.dominant].Hash() % uint64(g.n))
			} else {
				dest = g.rr[sr.stream] % g.n
				g.rr[sr.stream]++
			}
			g.offerShard(g.hash[dest], t)
		}
		if len(sr.pin) > 0 {
			g.pin.stats.Ingress++
			g.pin.admit(pinT, sr.pin)
		}
	}
}

// offerShard enqueues into a hash shard's ingress ring, draining egress
// while the ring is full so the group can never deadlock on its own
// output.
func (g *shardGroup) offerShard(sh *eddyShard, t *tuple.Tuple) {
	for !sh.in.TryEnqueue(t) {
		if g.isFailed() || sh.in.Closed() {
			tuple.Recycle(t)
			return
		}
		g.drainEgress(g.deliverRuns)
		runtime.Gosched()
	}
}

// drainEgress empties every hash shard's delivery ring into sink in
// shard order (the deterministic merge into the Hub seam) and returns
// rows moved.
func (g *shardGroup) drainEgress(sink func([]delivery)) int {
	total := 0
	for _, sh := range g.hash {
		for {
			n := sh.egress.DequeueBatch(g.egScratch)
			if n == 0 {
				break
			}
			total += n
			sink(g.egScratch[:n])
		}
	}
	return total
}

// deliverRuns hands deliveries to the executor in runs of consecutive
// same-query rows (engine deliveries cluster by query, so one
// deliverBatch usually covers a whole quantum's output for a query).
// Entries are cleared as they are taken, so a panic downstream never
// leaves an already-delivered row behind for teardown to recycle twice.
func (g *shardGroup) deliverRuns(pend []delivery) {
	for i := 0; i < len(pend); {
		id := pend[i].id
		g.rowBuf = g.rowBuf[:0]
		j := i
		for ; j < len(pend) && pend[j].id == id; j++ {
			g.rowBuf = append(g.rowBuf, pend[j].row)
			pend[j] = delivery{}
		}
		g.eo.x.deliverBatch(id, g.rowBuf)
		i = j
	}
}

// recycleRuns is the quarantine-time egress sink: the group's queries
// are failing, so rows are retired, not delivered.
func recycleRuns(pend []delivery) {
	for i := range pend {
		tuple.Recycle(pend[i].row)
		pend[i] = delivery{}
	}
}

// recycleTuples retires whatever a scratch buffer still holds.
func recycleTuples(buf []*tuple.Tuple) {
	for i := range buf {
		tuple.Recycle(buf[i])
		buf[i] = nil
	}
}

// recycleQueued retires everything left in a closed queue.
func recycleQueued(q interface{ TryDequeue() (*tuple.Tuple, bool) }) {
	for t, ok := q.TryDequeue(); ok; t, ok = q.TryDequeue() {
		tuple.Recycle(t)
	}
}

// ----------------------------------------------------------- control

func (g *shardGroup) control(env envelope) {
	// A panic inside a handler must still release the waiting submitter
	// before it unwinds into quarantine, or Submit/Barrier would hang on
	// a reply that never comes.
	replied := false
	defer func() {
		if r := recover(); r != nil {
			if !replied {
				env.reply <- ctlReply{err: fmt.Errorf("executor: EO %d panicked in control handler: %v", g.eo.idx, r)}
			}
			panic(r)
		}
	}()
	var r ctlReply
	switch env.ctl {
	case ctlAddQuery:
		r.err = g.addQuery(env)
	case ctlRemoveQuery:
		r.err = g.removeQuery(env.qid)
	case ctlLoadTable:
		// Table readers are always pinned, so loads feed the catch-all.
		r = g.pin.handle(env)
	case ctlBarrier:
		r.err = g.barrier()
	case ctlStats:
		r.snap = g.stats()
	}
	replied = true
	env.reply <- r
}

// conflicts reports whether a shardable query's keys clash with the
// keys already in force (two queries hashing one alias by different
// columns cannot share the hash shards; the later one is pinned).
func (g *shardGroup) conflicts(part *plan.Partition) bool {
	for _, k := range part.Keys {
		if k.KeyIdx < 0 {
			continue
		}
		for _, qid := range g.order {
			rec := g.records[qid]
			if rec.pinned || rec.part == nil {
				continue
			}
			for _, ok := range rec.part.Keys {
				if ok.Stream == k.Stream && ok.Alias == k.Alias && ok.KeyIdx >= 0 && ok.KeyIdx != k.KeyIdx {
					return true
				}
			}
		}
	}
	return false
}

// addQuery registers a query on the catch-all (pinned — which is every
// query when there are no hash shards) or on every hash shard, then
// republishes the route table.
func (g *shardGroup) addQuery(env envelope) error {
	part := env.part
	pin := g.n == 0 || part == nil || part.Pinned || g.conflicts(part)
	add := envelope{ctl: ctlAddQuery, query: env.query}
	var err error
	if pin {
		err = g.pin.handle(add).err
	} else {
		for i, sh := range g.hash {
			if err = g.askShard(sh, add).err; err != nil {
				for _, done := range g.hash[:i] { // roll back the partial registration
					g.askShard(done, envelope{ctl: ctlRemoveQuery, qid: env.query.ID})
				}
				break
			}
		}
	}
	if err != nil {
		return err
	}
	g.records[env.query.ID] = &shardQuery{part: part, feeds: env.feeds, pinned: pin}
	g.order = append(g.order, env.query.ID)
	g.rebuildRoute()
	return nil
}

func (g *shardGroup) removeQuery(qid int) error {
	rec := g.records[qid]
	if rec == nil {
		return nil
	}
	delete(g.records, qid)
	for i, id := range g.order {
		if id == qid {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	rm := envelope{ctl: ctlRemoveQuery, qid: qid}
	var err error
	if rec.pinned {
		err = g.pin.handle(rm).err
	} else {
		for _, sh := range g.hash {
			if e := g.askShard(sh, rm).err; e != nil && err == nil {
				err = e
			}
		}
	}
	g.rebuildRoute()
	return err
}

// rebuildRoute recomputes the published route table from the registered
// queries, preserving each stream's frontier value. Stable: iteration
// follows registration order.
func (g *shardGroup) rebuildRoute() {
	old := g.route.Load()
	rt := &routeTable{streams: map[string]*streamRoute{}}
	var order []*streamRoute
	stream := func(name string) *streamRoute {
		sr := rt.streams[name]
		if sr == nil {
			sr = &streamRoute{stream: name, dominant: -1, front: &streamFrontier{stream: name}}
			if osr := old.streams[name]; osr != nil {
				sr.front.seq.Store(osr.front.seq.Load())
			}
			rt.streams[name] = sr
			order = append(order, sr)
		}
		return sr
	}
	for _, qid := range g.order {
		rec := g.records[qid]
		if rec.pinned {
			for _, f := range rec.feeds {
				sr := stream(f.Stream)
				sr.pin = withAlias(sr.pin, f.As, -1)
			}
			continue
		}
		for _, k := range rec.part.Keys {
			sr := stream(k.Stream)
			sr.hash = withAlias(sr.hash, k.Alias, k.KeyIdx)
		}
	}
	for _, sr := range order {
		if len(sr.hash) == 0 {
			continue
		}
		for _, ar := range sr.hash {
			sr.front.aliases = append(sr.front.aliases, ar.alias)
			if ar.keyIdx >= 0 && sr.dominant < 0 {
				sr.dominant = ar.keyIdx
			}
		}
		rt.frontier = append(rt.frontier, sr.front)
	}
	g.route.Store(rt)
}

// askShard sends a hash shard a command and waits for its reply, staying
// live: it keeps merging egress meanwhile (a shard publishing a large
// quiesce round must never wait on an EO that is waiting on it), and a
// group failure releases the wait with the quarantine error.
func (g *shardGroup) askShard(sh *eddyShard, c envelope) ctlReply {
	c.reply = make(chan ctlReply, 1)
	select {
	case sh.cmd <- c:
	case <-g.failed:
	}
	for {
		select {
		case r := <-c.reply:
			return r
		case <-g.failed:
			return ctlReply{err: g.failErr()}
		default:
			g.drainEgress(g.deliverRuns)
			runtime.Gosched()
		}
	}
}

// barrier quiesces the whole EO: rounds of (drain executor ingress →
// route; quiesce the inline catch-all; ask each hash shard; drain
// egress) until a full round moves nothing. Shard quiesce counts
// exchanged tuples, so work bouncing between shards keeps the barrier
// open until the mesh is dry.
func (g *shardGroup) barrier() error {
	eo := g.eo
	var firstErr error
	for {
		moved := 0
		for {
			n := eo.data.DequeueBatch(g.drain)
			if n == 0 {
				break
			}
			moved += n
			g.routeBatch(g.drain[:n])
		}
		if err := g.pin.quantum(); err != nil && firstErr == nil {
			firstErr = err
		}
		for _, sh := range g.hash {
			r := g.askShard(sh, envelope{ctl: ctlBarrier})
			if g.isFailed() {
				return g.failErr() // nothing will quiesce anymore
			}
			moved += r.moved
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			g.drainEgress(g.deliverRuns)
		}
		if moved == 0 && eo.data.Len() == 0 {
			return firstErr
		}
	}
}

// stats snapshots the catch-all in place and every hash shard through
// its command channel, and sums the copies into one EO-level snapshot
// (plus the per-shard detail when there are hash shards). Concurrent
// scrapes are race-free: each counter is only ever read by its owning
// goroutine, and only snapshots are merged.
func (g *shardGroup) stats() *eoSnapshot {
	out := g.pin.handle(envelope{ctl: ctlStats}).snap
	pinRow := out.shards
	out.shards = nil
	for _, sh := range g.hash {
		r := g.askShard(sh, envelope{ctl: ctlStats})
		if r.snap == nil {
			continue // the group failed mid-scrape
		}
		r.snap.shards[0].ingressLen, r.snap.shards[0].egressLen = sh.in.Len(), sh.egress.Len()
		mergeSnapshot(out, r.snap)
	}
	if g.n > 0 {
		out.shards = append(out.shards, pinRow...)
	}
	return out
}

// shutdown runs after the executor closes the EO's queues: quiesce so
// queued work drains, then end the hash shards.
func (g *shardGroup) shutdown() {
	_ = g.barrier() // best effort; a failed group aborts below
	g.stopShards(g.deliverRuns)
}

// stopShards ends the hash shards: close their rings, then their command
// channels (which wakes a shard waiting for work; with every ring closed
// its next empty turn exits), wait for each goroutine while draining its
// egress into sink (a shard blocked publishing results can then always
// finish), and recycle whatever is still queued between shards.
func (g *shardGroup) stopShards(sink func([]delivery)) {
	// The ingress rings close only here; a second call (quarantine after
	// a panic in shutdown) must not close the command channels again.
	stopping := len(g.hash) > 0 && !g.hash[0].in.Closed()
	for _, sh := range g.hash {
		sh.in.Close()
	}
	g.mesh.CloseAll()
	if stopping {
		for _, sh := range g.hash {
			close(sh.cmd)
		}
	}
	w := idler{tick: g.tick}
	for _, sh := range g.hash {
		for exited := false; !exited; {
			g.drainEgress(sink)
			select {
			case <-sh.done:
				exited = true
			case <-w.after():
			}
		}
	}
	g.drainEgress(sink)
	for _, sh := range g.hash {
		recycleQueued(sh.in)
	}
	g.mesh.DrainAll(tuple.Recycle)
}

// quarantine retires the EO after a panic (on the EO goroutine or in a
// hash shard): admission stops, the hash shards exit (siblings of a
// panicking shard are victims, not culprits — but they host the same
// queries, so the group fails as a unit), queued work is recycled,
// waiting control senders are released, and the EO's queries fail with
// an error wrapping ErrQuarantined. Other EOs — and therefore all
// queries in other classes — keep running. Runs on the EO goroutine,
// immediately before it exits.
func (g *shardGroup) quarantine() {
	eo := g.eo
	eo.dead.Store(true)
	err := g.failErr()
	fmt.Fprintf(os.Stderr, "telegraphcq: %v\n%s", err, g.stack)

	// Stop admission, then retire everything already queued: the hash
	// tier, the drain scratch (a panic mid-batch leaves its tail
	// unprocessed), the data queue, and the catch-all's buffered
	// deliveries.
	eo.data.Close()
	eo.ctl.Close()
	g.stopShards(recycleRuns)
	recycleTuples(g.drain)
	recycleQueued(eo.data)
	g.pin.teardown()
	// Release queued control senders (Submit, Barrier, scrapes) with the
	// quarantine error so nothing deadlocks on a dead EO.
	for {
		env, ok := eo.ctl.TryDequeue()
		if !ok {
			break
		}
		env.reply <- ctlReply{err: err}
	}
	eo.x.failEO(eo, err)
}

// ------------------------------------------------------------- shard

// eddyShard is one engine host: a private CACQ engine (its own eddy,
// SteMs, grouped filters and batch freelist) plus the delivery buffer
// its quanta fill. Hosts differ only in where their input comes from
// and where out is flushed: the catch-all is fed and flushed by the EO
// goroutine that hosts it; a hash shard runs loop on its own goroutine
// between an ingress ring, its row/column of the exchange mesh, and an
// egress ring the EO drains.
type eddyShard struct {
	id     int
	g      *shardGroup
	engine *cacq.Engine
	out    []delivery
	flush  func([]delivery) // deliverRuns (catch-all) or publish (hash shard)
	stats  shardStats

	// Hash shards only: rings, command channel and goroutine-owned
	// scratch (never shared).
	in      *fjord.SPSC[*tuple.Tuple]
	cmd     chan envelope
	egress  *fjord.SPSC[delivery]
	inbound []*fjord.SPSC[*tuple.Tuple]
	done    chan struct{}
	drain   []*tuple.Tuple
	xdrain  []*tuple.Tuple
	fwd     [][]*tuple.Tuple
	applied map[string]int64
}

// admit pushes one tuple into the dataflow under every alias in aliases
// (this host's tier of the stream's route): aliases keyed to another
// hash shard are repartitioned through the exchange, the rest enter this
// host's engine.
func (sh *eddyShard) admit(t *tuple.Tuple, aliases []aliasRoute) {
	src := t.Schema.Sources[0]
	if sh.g.eo.x.opts.Chaos.PanicFor(src) {
		panic(fmt.Sprintf("chaos: injected operator panic on stream %s (EO %d shard %d)", src, sh.g.eo.idx, sh.id))
	}
	if len(aliases) == 1 && aliases[0].alias == src {
		// Common fast path: one destination, no rename — move the
		// original without cloning.
		sh.place(t, aliases[0].keyIdx)
		return
	}
	for _, ar := range aliases {
		tt := t.Clone()
		if ar.alias != src {
			tt.Schema = t.Schema.RenameShared(ar.alias)
		}
		sh.place(tt, ar.keyIdx)
	}
	tuple.Recycle(t) // every alias got a clone (or nobody reads it anymore)
}

// place admits t locally or forwards it to the hash shard keyIdx maps
// it to.
func (sh *eddyShard) place(t *tuple.Tuple, keyIdx int) {
	if keyIdx >= 0 {
		if d := int(t.Values[keyIdx].Hash() % uint64(sh.g.n)); d != sh.id {
			sh.forward(d, t)
			return
		}
	}
	_ = sh.engine.Push(t)
}

// quantum gives the engine a quantum and flushes the result rows it
// buffered.
func (sh *eddyShard) quantum() error {
	err := sh.engine.Run()
	if len(sh.out) > 0 {
		sh.stats.Egress += int64(len(sh.out))
		sh.flush(sh.out)
		sh.out = sh.out[:0]
	}
	return err
}

// handle executes one control command on the goroutine that owns the
// engine.
func (sh *eddyShard) handle(c envelope) ctlReply {
	var r ctlReply
	switch c.ctl {
	case ctlAddQuery:
		r.err = sh.engine.AddQuery(c.query)
	case ctlRemoveQuery:
		sh.engine.RemoveQuery(c.qid)
	case ctlLoadTable:
		for _, row := range c.rows {
			if e := sh.engine.Push(row); e != nil && r.err == nil {
				r.err = e
			}
		}
		if e := sh.quantum(); e != nil && r.err == nil {
			r.err = e
		}
	case ctlBarrier:
		// One quiesce round of a hash shard (the EO quiesces its inline
		// catch-all itself): drain exchange and ingress, run the engine
		// to idle, flush outbound. The EO loops rounds until every shard
		// reports zero movement.
		r.moved = sh.drainExchange()
		sh.syncFrontier()
		for n := sh.pullIngress(); n > 0; n = sh.pullIngress() {
			r.moved += n
		}
		r.err = sh.quantum()
		r.moved += sh.flushForwards()
	case ctlStats:
		r.snap = snapshotEngine(sh.engine)
		r.snap.shards = []shardSnapshot{{
			id: sh.id, catchAll: sh == sh.g.pin,
			eddy: r.snap.eddy, engine: r.snap.engine, stats: sh.stats,
		}}
	}
	return r
}

// teardown recycles host-owned buffers on exit (they are empty on a
// clean shutdown; on abort they may hold in-flight tuples).
func (sh *eddyShard) teardown() {
	recycleTuples(sh.drain)
	recycleTuples(sh.xdrain)
	for dest := range sh.fwd {
		recycleTuples(sh.fwd[dest])
		sh.fwd[dest] = nil
	}
	recycleRuns(sh.out)
	sh.out = sh.out[:0]
}

// ------------------------------------------------- hash-shard goroutine

func (sh *eddyShard) loop() {
	defer close(sh.done)
	defer sh.teardown()
	w := idler{tick: sh.g.tick}
	for !sh.g.isFailed() && !sh.step(&w) {
	}
}

// step is one turn of a hash shard: handle a command, pull exchange and
// ingress, run a quantum, flush outbound, and when idle wait for the
// next command, the group's failure or the idle tick. A panic fails the
// whole group.
func (sh *eddyShard) step(w *idler) (exit bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.g.fail(fmt.Sprintf("shard %d: %v", sh.id, r), debug.Stack())
			exit = true
		}
	}()
	moved := 0
	select {
	case c, ok := <-sh.cmd:
		moved += sh.serve(c, ok)
	default:
	}
	moved += sh.drainExchange()
	sh.syncFrontier()
	moved += sh.pullIngress()
	_ = sh.quantum()
	sh.flushForwards()
	if moved == 0 && sh.in.Closed() && sh.in.Len() == 0 && sh.exchangeDry() {
		return true
	}
	if w.rest(moved > 0) {
		select {
		case c, ok := <-sh.cmd:
			sh.serve(c, ok)
		case <-sh.g.failed:
		case <-w.after():
		}
	}
	return false
}

// serve answers one command received from sh.cmd and reports how many
// it handled; a closed channel (stopShards) handles none.
func (sh *eddyShard) serve(c envelope, ok bool) int {
	if !ok {
		return 0
	}
	c.reply <- sh.handle(c)
	return 1
}

// exchangeDry reports whether every inbound exchange ring is closed and
// empty — the shard's signal that the group is shutting down.
func (sh *eddyShard) exchangeDry() bool {
	for _, r := range sh.inbound {
		if !r.Closed() || r.Len() != 0 {
			return false
		}
	}
	return true
}

// pullIngress admits one drain batch from the ingress ring under the
// stream's hash-tier aliases and returns its size.
func (sh *eddyShard) pullIngress() int {
	n := sh.in.DequeueBatch(sh.drain)
	sh.stats.Ingress += int64(n)
	rt := sh.g.route.Load()
	for i := 0; i < n; i++ {
		t := sh.drain[i]
		sh.drain[i] = nil
		var aliases []aliasRoute
		if sr := rt.streams[t.Schema.Sources[0]]; sr != nil {
			aliases = sr.hash
		}
		sh.admit(t, aliases)
	}
	return n
}

// syncFrontier applies the EO's per-stream sequence frontier so this
// hash shard's eviction horizons match an unsharded engine's. (The
// catch-all never needs it: every stream it has state for is admitted
// to it in full, in global order, so its own maxSeq is already exact.)
func (sh *eddyShard) syncFrontier() {
	rt := sh.g.route.Load()
	for _, f := range rt.frontier {
		v := f.seq.Load()
		if v <= sh.applied[f.stream] {
			continue
		}
		sh.applied[f.stream] = v
		for _, alias := range f.aliases {
			sh.engine.AdvanceSeq(alias, v)
		}
	}
}

// drainExchange admits every tuple queued on the inbound exchange rings
// (pre-renamed by the sender; they go straight into the engine).
func (sh *eddyShard) drainExchange() int {
	total := 0
	for _, ring := range sh.inbound {
		for {
			n := ring.DequeueBatch(sh.xdrain)
			if n == 0 {
				break
			}
			sh.stats.FwdIn += int64(n)
			total += n
			for i := 0; i < n; i++ {
				_ = sh.engine.Push(sh.xdrain[i])
				sh.xdrain[i] = nil
			}
		}
	}
	return total
}

// forward buffers one tuple for the exchange ring to dest, flushing when
// the buffer fills (quantum end and barriers flush the remainder).
func (sh *eddyShard) forward(dest int, t *tuple.Tuple) {
	sh.fwd[dest] = append(sh.fwd[dest], t)
	if len(sh.fwd[dest]) >= exchangeFlushBatch {
		sh.flushTo(dest)
	}
}

// flushForwards flushes every non-empty outbound buffer; returns tuples
// actually moved onto exchange rings.
func (sh *eddyShard) flushForwards() int {
	total := 0
	for dest := range sh.fwd {
		if len(sh.fwd[dest]) > 0 {
			total += sh.flushTo(dest)
		}
	}
	return total
}

// flushTo publishes one outbound buffer onto its exchange ring. While
// the ring is full it drains this shard's own inbound rings — the
// "helping" rule that makes a saturated mesh deadlock-free: in any wait
// cycle every waiter is also a consumer, so some ring always empties.
func (sh *eddyShard) flushTo(dest int) int {
	buf := sh.fwd[dest]
	ring := sh.g.mesh.Ring(sh.id, dest)
	sent := 0
	for sent < len(buf) {
		n := ring.TryEnqueueBatch(buf[sent:])
		if n > 0 {
			sent += n
			continue
		}
		if sh.g.isFailed() || ring.Closed() {
			for _, t := range buf[sent:] {
				tuple.Recycle(t)
				sh.stats.FwdDrop++
			}
			break
		}
		sh.drainExchange()
		runtime.Gosched()
	}
	sh.stats.FwdOut += int64(sent)
	for i := range buf {
		buf[i] = nil
	}
	sh.fwd[dest] = buf[:0]
	return sent
}

// publish is a hash shard's flush: it moves buffered deliveries onto the
// egress ring, keeping its inbound exchange moving while the EO is
// behind.
func (sh *eddyShard) publish(pend []delivery) {
	sent := 0
	for sent < len(pend) {
		n := sh.egress.TryEnqueueBatch(pend[sent:])
		if n > 0 {
			sent += n
			continue
		}
		if sh.g.isFailed() {
			recycleRuns(pend[sent:])
			break
		}
		sh.drainExchange()
		runtime.Gosched()
	}
	for i := range pend {
		pend[i] = delivery{}
	}
}
