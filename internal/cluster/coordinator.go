package cluster

import (
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"telegraphcq/internal/storage"
	"telegraphcq/internal/telemetry"
)

// Config sizes a coordinator deployment.
type Config struct {
	// Workers are exchange addresses dialed at Start — the static seed
	// roster. With Listen set this may be empty: workers register
	// themselves at runtime.
	Workers []string
	// Listen is the membership registry address (""= static membership
	// only). Workers dial it, send a JOIN hello, and are admitted into
	// the roster; the coordinator then dials their exchange back.
	Listen string
	// Journal is the path of the coordinator's durable log (""= none).
	// The shard map, node roster, epoch, and per-bucket ack floors
	// journal to it fsync'd; a restarted coordinator replays it and
	// resumes the cluster with zero acked-tuple loss.
	Journal string
	// Buckets is the partitioning granularity (default 8 × workers, or
	// 32 with a dynamic-only roster). A journal's bucket count wins: it
	// must match the floors workers hold.
	Buckets int
	// Heartbeat is the failure-detection interval (default 100ms). A
	// node with a ping unanswered past 1.25 intervals is declared dead,
	// so promotion lands within 2 heartbeat intervals of the last sign
	// of life with margin for probe scheduling.
	Heartbeat time.Duration
	// Replication enables process pairs; defaults to on with ≥ 2 static
	// workers or a dynamic registry.
	Replication *bool
	// DialTimeout bounds worker dials (default one heartbeat).
	DialTimeout time.Duration
	// OrphanGrace is how long an orphaned bucket (no live primary or
	// secondary) waits for its node to rejoin before being restarted
	// empty (default 20 heartbeats). Also the death deadline for
	// journal-recovered nodes that have not reconnected yet.
	OrphanGrace time.Duration
	// Balance tunes the skew-driven rebalancer (see BalanceConfig);
	// zero values take defaults, Balance.Disabled turns the policy off.
	Balance BalanceConfig
	// Logf receives lifecycle events (default log.Printf).
	Logf func(format string, args ...any)
}

// pendEntry is one routed entry retained until both replicas ack it.
type pendEntry struct {
	seq int64
	e   Entry
}

// bucketMeta is the coordinator's routing state for one bucket. All
// fields are guarded by Coordinator.mu.
type bucketMeta struct {
	primary   int // -1 = orphaned (no live owner; healer reassigns)
	secondary int // -1 = unreplicated
	nextSeq   int64
	ackP      int64 // primary's contiguous applied floor
	ackS      int64 // secondary's contiguous applied floor
	ackHi     int64 // highest floor ever credited to the acked counter
	pend      []pendEntry
	paused    bool // mid-state-movement: Route buffers instead of sending
	pauseBuf  []Entry

	routed      int64     // entries ever routed here (balancer rate source)
	orphanSince time.Time // when primary went to -1 (grace clock)
}

// release returns the release cursor contribution of the secondary
// (unreplicated buckets release on the primary ack alone).
func (bm *bucketMeta) release() int64 {
	if bm.secondary < 0 {
		return bm.ackP
	}
	if bm.ackS < bm.ackP {
		return bm.ackS
	}
	return bm.ackP
}

// node is one worker as the coordinator sees it.
type node struct {
	id   int
	name string // stable worker identity (static roster: the address)

	mu       sync.Mutex
	addr     string
	w        *wire // nil while disconnected
	alive    bool  // false once declared dead (terminal)
	dialing  bool
	everConn bool // connected at least once this coordinator incarnation
	lastPong time.Time
	// pingSent is the time of the oldest unanswered ping (zero when the
	// node has answered everything). Death is declared only when an
	// outstanding ping ages past the deadline — never from mere quiet,
	// which can equally mean the monitor itself was stalled behind a
	// blocking send.
	pingSent time.Time

	ctlMu sync.Mutex  // one outstanding control request at a time
	ctl   chan []byte // control replies (mState/mInstalled/mCollectReply)
	proc  int64       // worker-reported processed count (last pong)
}

func (n *node) addrOf() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addr
}

// Coordinator owns the shard map and routes the partitioned stream.
type Coordinator struct {
	cfg  Config
	repl bool

	epoch int64 // this incarnation's fencing epoch (journal replay + 1)

	jr  *storage.Journal // nil without durability
	jmu sync.Mutex       // serializes journal writes + compaction

	regLn net.Listener // membership registry (nil when Listen == "")

	mu      sync.Mutex
	nodes   []*node // grows under mu; index == node id
	byName  map[string]*node
	buckets []*bucketMeta
	closed  bool
	fenced  bool // a newer coordinator epoch exists; routing refused

	// counters (guarded by mu unless noted)
	routed      int64
	acked       int64 // entries primary-acknowledged
	retransmits int64
	promotions  int64
	moves       int64
	repairs     int64
	bucketsLost int64 // buckets restarted empty (primary died unreplicated)
	sendErrors  int64
	joins       int64         // registry admissions this incarnation
	lastDetect  time.Duration // silence observed when the last death was declared

	bal balancer

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator validates the config, replays the journal when one is
// configured, and prepares the shard map; Start connects and begins
// heartbeating.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 && cfg.Listen == "" && cfg.Journal == "" {
		return nil, fmt.Errorf("cluster: coordinator needs workers, a registry address, or a journal")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 100 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = cfg.Heartbeat
	}
	if cfg.OrphanGrace <= 0 {
		cfg.OrphanGrace = 20 * cfg.Heartbeat
	}
	c := &Coordinator{cfg: cfg, epoch: 1, byName: map[string]*node{}, stop: make(chan struct{})}

	var jst *journalState
	if cfg.Journal != "" {
		jr, st, err := replayJournal(cfg.Journal)
		if err != nil {
			return nil, fmt.Errorf("cluster: journal %s: %w", cfg.Journal, err)
		}
		c.jr = jr
		jst = st
		c.epoch = st.epoch + 1
	}

	recovered := jst != nil && (len(jst.nodes) > 0 || jst.buckets > 0)
	if recovered {
		// The journaled roster supersedes the static worker list: ids
		// must stay stable because the shard map references them.
		sort.Slice(jst.nodes, func(i, k int) bool { return jst.nodes[i].id < jst.nodes[k].id })
		for i, jn := range jst.nodes {
			if jn.id != i {
				c.jr.Close()
				return nil, fmt.Errorf("cluster: journal %s: non-contiguous node id %d", cfg.Journal, jn.id)
			}
			n := &node{id: jn.id, name: jn.name, addr: jn.addr, alive: !jn.dead, ctl: make(chan []byte, 1), lastPong: time.Now()}
			c.nodes = append(c.nodes, n)
			if !jn.dead {
				c.byName[jn.name] = n
			}
		}
		if jst.buckets > 0 {
			cfg.Buckets = jst.buckets
			c.cfg.Buckets = jst.buckets
		}
	} else {
		for i, addr := range cfg.Workers {
			n := &node{id: i, name: addr, addr: addr, alive: true, ctl: make(chan []byte, 1)}
			c.nodes = append(c.nodes, n)
			c.byName[addr] = n
		}
	}

	if cfg.Buckets <= 0 {
		if len(c.nodes) > 0 {
			cfg.Buckets = 8 * len(c.nodes)
		} else {
			cfg.Buckets = 32
		}
		c.cfg.Buckets = cfg.Buckets
	}
	if len(c.nodes) > 0 && cfg.Buckets < len(c.nodes) {
		return nil, fmt.Errorf("cluster: %d buckets for %d workers", cfg.Buckets, len(c.nodes))
	}

	c.repl = len(cfg.Workers) >= 2 || cfg.Listen != "" || (recovered && len(c.nodes) >= 2)
	if cfg.Replication != nil {
		c.repl = *cfg.Replication
	}
	if c.repl && cfg.Listen == "" && len(c.nodes) < 2 {
		return nil, fmt.Errorf("cluster: replication needs ≥ 2 workers")
	}

	liveSeed := c.liveNodeCountLocked()
	for b := 0; b < cfg.Buckets; b++ {
		bm := &bucketMeta{primary: -1, secondary: -1, nextSeq: 1}
		if recovered {
			if as, ok := jst.assign[b]; ok {
				bm.primary, bm.secondary = as[0], as[1]
				if !c.nodeLiveLocked(bm.primary) {
					bm.primary = -1
				}
				if !c.nodeLiveLocked(bm.secondary) {
					bm.secondary = -1
				}
			}
			if fl, ok := jst.floors[b]; ok {
				// The journaled floor is a lower bound; workers raise it
				// through their mFloors reports at reconnect. ackHi starts
				// at the floor so pre-restart acks are not re-credited.
				bm.ackP, bm.ackS, bm.ackHi = fl.floor, fl.floor, fl.floor
				bm.nextSeq = fl.hi + 1
			}
		} else if liveSeed > 0 {
			bm.primary = b % liveSeed
			if c.repl && liveSeed >= 2 {
				bm.secondary = (b + 1) % liveSeed
			}
		}
		if bm.primary < 0 {
			bm.orphanSince = time.Now()
		}
		c.buckets = append(c.buckets, bm)
	}
	c.bal.init(cfg.Balance, cfg.Heartbeat, cfg.Buckets)

	if c.jr != nil {
		// Make this incarnation durable before anything is admitted or
		// routed: the epoch record is what fences every predecessor.
		var recs [][]byte
		recs = append(recs, jrEpoch(c.epoch))
		if !recovered {
			recs = append(recs, jrBuckets(cfg.Buckets))
			for _, n := range c.nodes {
				recs = append(recs, jrNode(n.id, n.name, n.addr))
			}
			for b, bm := range c.buckets {
				if bm.primary >= 0 || bm.secondary >= 0 {
					recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
				}
			}
		}
		if err := c.journalAppend(recs...); err != nil {
			c.jr.Close()
			return nil, fmt.Errorf("cluster: journal %s: %w", cfg.Journal, err)
		}
	}
	return c, nil
}

// liveNodeCountLocked counts not-declared-dead nodes (c.mu or New).
func (c *Coordinator) liveNodeCountLocked() int {
	live := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.alive {
			live++
		}
		n.mu.Unlock()
	}
	return live
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// journalAppend appends records and fsyncs; a nil journal is a no-op.
// Never called with c.mu held: fsync latency must not stall routing.
func (c *Coordinator) journalAppend(recs ...[]byte) error {
	if c.jr == nil || len(recs) == 0 {
		return nil
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	for _, r := range recs {
		if err := c.jr.Append(r); err != nil {
			return err
		}
	}
	return c.jr.Sync()
}

// Start dials the known workers, opens the membership registry, and
// starts the failure detector and healer. With a purely static config
// (no registry, no journal) every worker must be up — a cluster that
// begins degraded cannot promise process pairs; recovered or dynamic
// rosters connect best-effort and the monitor keeps retrying.
func (c *Coordinator) Start() error {
	strict := c.cfg.Listen == "" && c.jr == nil
	if c.cfg.Listen != "" {
		if _, err := c.listenRegistry(c.cfg.Listen); err != nil {
			c.Close()
			return fmt.Errorf("cluster: registry listen %s: %w", c.cfg.Listen, err)
		}
	}
	for _, n := range c.nodesSnapshot() {
		n.mu.Lock()
		alive := n.alive
		n.mu.Unlock()
		if !alive {
			continue
		}
		if err := c.connect(n); err != nil {
			if strict {
				c.Close()
				return fmt.Errorf("cluster: worker %d (%s): %w", n.id, n.addrOf(), err)
			}
			c.logf("cluster: worker %d (%s) not reachable yet: %v", n.id, n.addrOf(), err)
		}
	}
	c.wg.Add(2)
	go c.monitor()
	go c.healer()
	return nil
}

// nodesSnapshot copies the roster slice (the nodes themselves are
// shared; their fields have their own lock).
func (c *Coordinator) nodesSnapshot() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node(nil), c.nodes...)
}

// nodeByID resolves an id against the growing roster.
func (c *Coordinator) nodeByID(id int) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// connect dials one worker, sends the hello, and starts its reader.
func (c *Coordinator) connect(n *node) error {
	conn, err := net.DialTimeout("tcp", n.addrOf(), c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	w := newWire(conn)
	if err := w.writeFrame(appendHello(nil, n.id, c.epoch, c.cfg.Heartbeat.Milliseconds())); err != nil {
		w.close()
		return err
	}
	n.mu.Lock()
	if old := n.w; old != nil {
		old.close() // one exchange connection per node
	}
	n.w = w
	n.alive = true
	n.everConn = true
	n.lastPong = time.Now()
	n.pingSent = time.Time{}
	n.mu.Unlock()
	c.wg.Add(1)
	go c.readLoop(n, w)
	return nil
}

// wireOf returns the node's current connection (nil when disconnected
// or dead).
func (n *node) wireOf() *wire {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil
	}
	return n.w
}

// readLoop drains one worker connection: acks and pongs are folded into
// coordinator state, floor reports reconciled, control replies handed
// to the waiting requester.
func (c *Coordinator) readLoop(n *node, w *wire) {
	defer c.wg.Done()
	for {
		payload, err := w.readFrame()
		if err != nil {
			n.mu.Lock()
			if n.w == w {
				n.w = nil // monitor reconnects or declares death
			}
			n.mu.Unlock()
			w.close()
			return
		}
		// Any frame proves the node is alive — acks clear the ping clock
		// just like pongs, so a worker busy draining a data backlog is
		// never mistaken for a silent one.
		n.mu.Lock()
		n.lastPong = time.Now()
		n.pingSent = time.Time{}
		n.mu.Unlock()
		d := &decoder{buf: payload[1:]}
		switch payload[0] {
		case mAck:
			bucket := int(d.uvarint())
			upTo := d.varint()
			if d.err == nil {
				c.onAck(n.id, bucket, upTo)
			}
		case mAckBatch:
			floors := decodeFloorPairs(d)
			if d.err == nil {
				for bucket, upTo := range floors {
					c.onAck(n.id, bucket, upTo)
				}
			}
		case mFloors:
			floors := decodeFloorPairs(d)
			if d.err == nil {
				c.reconcileFloors(n, floors)
			}
		case mPong:
			proc := d.varint()
			if d.err == nil {
				n.mu.Lock()
				n.proc = proc
				n.mu.Unlock()
			}
		case mState, mInstalled, mCollectReply:
			select {
			case n.ctl <- payload:
			default: // stale reply from a timed-out request: drop
			}
		}
	}
}

// onAck advances a bucket's replica cursors and releases fully
// replicated entries.
func (c *Coordinator) onAck(nodeID, bucket int, upTo int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bucket < 0 || bucket >= len(c.buckets) {
		return
	}
	bm := c.buckets[bucket]
	switch nodeID {
	case bm.primary:
		if upTo > bm.ackP {
			bm.ackP = upTo
		}
		// Credit against the high-water mark, not ackP: a promotion can
		// move ackP backwards (new primary behind the old one), and the
		// re-acked range must not be counted twice.
		if upTo > bm.ackHi {
			c.acked += upTo - bm.ackHi
			bm.ackHi = upTo
		}
	case bm.secondary:
		if upTo > bm.ackS {
			bm.ackS = upTo
		}
	default:
		return // stale ack from a node no longer serving this bucket
	}
	rel := bm.release()
	i := 0
	for i < len(bm.pend) && bm.pend[i].seq <= rel {
		i++
	}
	if i > 0 {
		bm.pend = append(bm.pend[:0], bm.pend[i:]...)
	}
}

// Route partitions one observation and delivers it to the bucket's
// process pair. The entry is retained until both replicas acknowledge
// it; a worker that misses it (connection drop, failover) gets it again
// from the retransmit path, and the per-bucket sequence makes the retry
// idempotent. An orphaned bucket (no live owner yet) pends without
// sending; the healer's reassignment retransmits.
func (c *Coordinator) Route(key string, val float64) error {
	b := BucketOf(key, len(c.buckets))
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster: coordinator closed")
	}
	if c.fenced {
		c.mu.Unlock()
		return fmt.Errorf("cluster: coordinator fenced by a newer epoch")
	}
	bm := c.buckets[b]
	c.routed++
	bm.routed++
	if bm.paused {
		bm.pauseBuf = append(bm.pauseBuf, Entry{Key: key, Val: val})
		c.mu.Unlock()
		return nil
	}
	seq := bm.nextSeq
	bm.nextSeq++
	bm.pend = append(bm.pend, pendEntry{seq: seq, e: Entry{Key: key, Val: val}})
	p, s := bm.primary, bm.secondary
	c.mu.Unlock()

	frame := appendData(nil, b, seq, []Entry{{Key: key, Val: val}})
	c.sendTo(p, frame)
	if s >= 0 {
		c.sendTo(s, frame) // same bytes: encoded once for the pair
	}
	return nil
}

// sendTo writes one frame to a node if it is connected; a missing or
// failing connection is not an error here — the entry stays pending and
// the monitor's reconnect/promotion path retransmits it.
func (c *Coordinator) sendTo(nodeID int, frame []byte) {
	n := c.nodeByID(nodeID)
	if n == nil {
		return
	}
	w := n.wireOf()
	if w == nil {
		return
	}
	if err := w.writeFrame(frame); err != nil {
		c.mu.Lock()
		c.sendErrors++
		c.mu.Unlock()
		n.mu.Lock()
		if n.w == w {
			n.w = nil
		}
		n.mu.Unlock()
		w.close()
	}
}

// retransmit resends every pending entry the node is responsible for
// (primary or secondary) — the at-least-once catch-up after a reconnect
// or a promotion. Worker-side dedup absorbs any overlap.
func (c *Coordinator) retransmit(nodeID int) {
	type batch struct {
		bucket  int
		baseSeq int64
		entries []Entry
	}
	var batches []batch
	c.mu.Lock()
	for b, bm := range c.buckets {
		var floor int64
		switch nodeID {
		case bm.primary:
			floor = bm.ackP
		case bm.secondary:
			floor = bm.ackS
		default:
			continue
		}
		var entries []Entry
		var base int64 = -1
		for _, pe := range bm.pend {
			if pe.seq <= floor {
				continue
			}
			if base < 0 {
				base = pe.seq
			}
			entries = append(entries, pe.e)
		}
		if base >= 0 {
			batches = append(batches, batch{bucket: b, baseSeq: base, entries: entries})
			c.retransmits += int64(len(entries))
		}
	}
	c.mu.Unlock()
	for _, bt := range batches {
		c.sendTo(nodeID, appendData(nil, bt.bucket, bt.baseSeq, bt.entries))
	}
}

// ------------------------------------------------------------- detector

// monitor is the failure detector and repair loop: it pings workers,
// reconnects dropped connections, declares nodes that stay silent past
// the deadline dead, and restores replication afterwards.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Heartbeat / 8)
	defer tick.Stop()
	deadline := c.cfg.Heartbeat + c.cfg.Heartbeat/4
	ping := appendPing(nil)
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for _, n := range c.nodesSnapshot() {
			n.mu.Lock()
			alive, w, dialing := n.alive, n.w, n.dialing
			outstanding, silence := n.pingSent, time.Since(n.lastPong)
			everConn := n.everConn
			n.mu.Unlock()
			if !alive {
				continue
			}
			// A journal-recovered node that has not reconnected this
			// incarnation gets the longer orphan grace before being
			// declared dead: its worker may be mid-re-registration.
			dl := deadline
			if !everConn {
				dl = c.cfg.OrphanGrace
			}
			if !outstanding.IsZero() && time.Since(outstanding) > dl {
				c.declareDead(n, silence)
				continue
			}
			if w == nil {
				// Disconnected: the reconnect attempt doubles as the
				// probe, so start the death clock now.
				n.mu.Lock()
				if n.pingSent.IsZero() {
					n.pingSent = time.Now()
				}
				n.mu.Unlock()
				if !dialing {
					n.mu.Lock()
					n.dialing = true
					n.mu.Unlock()
					c.wg.Add(1)
					go func(n *node) {
						defer c.wg.Done()
						err := c.connect(n)
						n.mu.Lock()
						n.dialing = false
						n.mu.Unlock()
						if err == nil {
							c.retransmit(n.id)
						}
					}(n)
				}
				continue
			}
			n.mu.Lock()
			if n.pingSent.IsZero() {
				n.pingSent = time.Now()
			}
			n.mu.Unlock()
			c.sendTo(n.id, ping)
		}
	}
}

// declareDead is the promotion path: every bucket the dead node ran as
// primary fails over to its secondary without losing one acked entry;
// buckets that lose their secondary are noted for repair. Replication
// is then restored by state movement onto surviving nodes.
func (c *Coordinator) declareDead(n *node, silence time.Duration) {
	n.mu.Lock()
	if !n.alive {
		n.mu.Unlock()
		return
	}
	n.alive = false
	w := n.w
	n.w = nil
	n.mu.Unlock()
	if w != nil {
		w.close()
	}

	recs := [][]byte{jrDead(n.id)}
	c.mu.Lock()
	if c.byName[n.name] == n {
		delete(c.byName, n.name) // a rejoining same-name worker gets a fresh id
	}
	c.lastDetect = silence
	survivor := -1
	for _, m := range c.nodes {
		m.mu.Lock()
		ok := m.alive
		m.mu.Unlock()
		if ok {
			survivor = m.id
			break
		}
	}
	newPrimaries := map[int]bool{}
	var promoted, lost, toRepair []int
	for b, bm := range c.buckets {
		if bm.primary == n.id {
			if bm.secondary >= 0 && c.nodeLiveLocked(bm.secondary) {
				bm.primary = bm.secondary
				bm.secondary = -1
				// Everything the dead primary acked past the secondary's
				// floor is still pending (entries release only when both
				// acked) and is retransmitted below: zero acked loss.
				// The secondary's floor becomes the primary floor; credit
				// whatever it was ahead by (its acks were never credited
				// as primary acks).
				if bm.ackS > bm.ackHi {
					c.acked += bm.ackS - bm.ackHi
					bm.ackHi = bm.ackS
				}
				bm.ackP = bm.ackS
				c.promotions++
				promoted = append(promoted, b)
				newPrimaries[bm.primary] = true
			} else if survivor >= 0 {
				// Unreplicated primary death: the state is gone. Restart
				// the bucket empty on a survivor — but keep it paused
				// until the survivor has the dedup floor installed, or
				// its ack floor could never reach the dead sequences.
				bm.primary = survivor
				bm.secondary = -1
				// Force-advance the floor past the discarded entries so
				// barriers terminate; BucketsLost records the damage.
				if d := bm.nextSeq - 1 - bm.ackHi; d > 0 {
					c.acked += d
					bm.ackHi = bm.nextSeq - 1
				}
				bm.ackP = bm.nextSeq - 1
				bm.ackS = bm.ackP
				bm.pend = bm.pend[:0]
				if !bm.paused {
					bm.paused = true
				}
				c.bucketsLost++
				lost = append(lost, b)
			} else {
				// No survivor at all: orphan the bucket; the healer
				// reassigns when a node (re)joins.
				bm.primary = -1
				bm.secondary = -1
				bm.orphanSince = time.Now()
			}
			recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
			toRepair = append(toRepair, b)
		} else if bm.secondary == n.id {
			bm.secondary = -1
			recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
			toRepair = append(toRepair, b)
		}
	}
	c.mu.Unlock()
	if err := c.journalAppend(recs...); err != nil {
		c.logf("cluster: journal: %v", err)
	}
	c.logf("cluster: worker %d (%s) declared dead after %v silence: %d promotions, %d buckets lost, %d to repair",
		n.id, n.addrOf(), silence.Round(time.Millisecond), len(promoted), len(lost), len(toRepair))
	if survivor < 0 {
		c.logf("cluster: no surviving workers; buckets orphaned until a join")
		return
	}
	// Catch-up and repair run off the monitor goroutine: their sends can
	// block on a backlogged peer, and a stalled monitor stops probing.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Catch each promoted primary up (retransmit covers every bucket
		// a node serves in one pass), then restore process pairs.
		for p := range newPrimaries {
			c.retransmit(p)
		}
		for _, b := range lost {
			if err := c.reinitLost(b); err != nil {
				c.logf("cluster: reinit bucket %d: %v", b, err)
			}
		}
		if !c.repl {
			return
		}
		for _, b := range toRepair {
			if err := c.repairReplication(b); err != nil {
				c.logf("cluster: repair bucket %d: %v", b, err)
			}
		}
	}()
}

// reinitLost installs an empty state and the current dedup floor on a
// lost bucket's replacement primary, then reopens the bucket (it was
// paused in declareDead).
func (c *Coordinator) reinitLost(bucket int) error {
	defer c.resume(bucket)
	c.mu.Lock()
	bm := c.buckets[bucket]
	p, floor := bm.primary, bm.nextSeq-1 // frozen: the bucket is paused
	c.mu.Unlock()
	_, err := c.ctlRequest(p, appendState(nil, mInstall, bucket, floor, BucketState{}), mInstalled, c.moveTimeout())
	return err
}

// nodeLiveLocked reports liveness; requires c.mu (roster access).
func (c *Coordinator) nodeLiveLocked(id int) bool {
	if id < 0 || id >= len(c.nodes) {
		return false
	}
	n := c.nodes[id]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

func (c *Coordinator) nodeAlive(id int) bool {
	n := c.nodeByID(id)
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// nodeConnectedLocked reports a live, currently-connected node
// (requires c.mu).
func (c *Coordinator) nodeConnectedLocked(id int) bool {
	if id < 0 || id >= len(c.nodes) {
		return false
	}
	n := c.nodes[id]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive && n.w != nil
}

// ------------------------------------------------------- state movement

// pause marks a bucket mid-movement so Route buffers its arrivals.
func (c *Coordinator) pause(bucket int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	bm := c.buckets[bucket]
	if bm.paused {
		return fmt.Errorf("cluster: bucket %d already moving", bucket)
	}
	bm.paused = true
	return nil
}

// resume reopens a paused bucket and drains its pause buffer through
// the normal routing path.
func (c *Coordinator) resume(bucket int) {
	c.mu.Lock()
	bm := c.buckets[bucket]
	buf := bm.pauseBuf
	bm.pauseBuf = nil
	bm.paused = false
	var frames [][]byte
	p, s := bm.primary, bm.secondary
	for _, e := range buf {
		seq := bm.nextSeq
		bm.nextSeq++
		bm.pend = append(bm.pend, pendEntry{seq: seq, e: e})
		frames = append(frames, appendData(nil, bucket, seq, []Entry{e}))
	}
	c.mu.Unlock()
	for _, f := range frames {
		c.sendTo(p, f)
		if s >= 0 {
			c.sendTo(s, f)
		}
	}
}

// quiesce waits until every assigned entry of the bucket has been
// acknowledged by its primary (the bucket must be paused, so the set of
// assigned entries is frozen). State fetched afterwards covers exactly
// the assigned prefix — the precondition for movable state. Aborts
// promptly when the coordinator is closing: the caller's deferred
// resume is what guarantees no bucket is ever left paused.
func (c *Coordinator) quiesce(bucket int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-c.stop:
			return fmt.Errorf("cluster: coordinator closing")
		default:
		}
		c.mu.Lock()
		bm := c.buckets[bucket]
		done := bm.ackP == bm.nextSeq-1
		c.mu.Unlock()
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: bucket %d did not quiesce in %v", bucket, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// ctlRequest sends one control frame to a node and waits for its reply.
func (c *Coordinator) ctlRequest(nodeID int, req []byte, want byte, timeout time.Duration) (*decoder, error) {
	n := c.nodeByID(nodeID)
	if n == nil {
		return nil, fmt.Errorf("cluster: no worker %d", nodeID)
	}
	n.ctlMu.Lock()
	defer n.ctlMu.Unlock()
	// Drain a stale reply from an earlier timed-out request.
	select {
	case <-n.ctl:
	default:
	}
	w := n.wireOf()
	if w == nil {
		return nil, fmt.Errorf("cluster: worker %d not connected", nodeID)
	}
	if err := w.writeFrame(req); err != nil {
		return nil, err
	}
	select {
	case payload := <-n.ctl:
		if payload[0] != want {
			return nil, fmt.Errorf("cluster: worker %d replied %d, want %d", nodeID, payload[0], want)
		}
		return &decoder{buf: payload[1:]}, nil
	case <-c.stop:
		return nil, fmt.Errorf("cluster: coordinator closing")
	case <-time.After(timeout):
		return nil, fmt.Errorf("cluster: worker %d control timeout", nodeID)
	}
}

// moveTimeout bounds each state-movement step.
func (c *Coordinator) moveTimeout() time.Duration { return 20 * c.cfg.Heartbeat }

// repairReplication restores a bucket's process pair after a death:
// pause → quiesce → clone the primary's state → install it (with the
// dedup floor) on the least-loaded survivor → resume. The same
// mechanism Flux uses for load balancing, reused for replica repair.
func (c *Coordinator) repairReplication(bucket int) error {
	c.mu.Lock()
	bm := c.buckets[bucket]
	if bm.secondary >= 0 || bm.paused || bm.primary < 0 {
		c.mu.Unlock()
		return nil
	}
	p := bm.primary
	c.mu.Unlock()
	dst := c.leastLoaded(p)
	if dst < 0 {
		return fmt.Errorf("no survivor to replicate onto")
	}
	if err := c.pause(bucket); err != nil {
		return err
	}
	defer c.resume(bucket)
	if err := c.quiesce(bucket, c.moveTimeout()); err != nil {
		return err
	}
	d, err := c.ctlRequest(p, appendFetch(nil, bucket, false), mState, c.moveTimeout())
	if err != nil {
		return err
	}
	_ = d.uvarint() // bucket echo
	floor := d.varint()
	st := d.state()
	if d.err != nil {
		return d.err
	}
	if _, err := c.ctlRequest(dst, appendState(nil, mInstall, bucket, floor, st), mInstalled, c.moveTimeout()); err != nil {
		return err
	}
	c.mu.Lock()
	bm.secondary = dst
	bm.ackS = floor
	c.repairs++
	p2, s2 := bm.primary, bm.secondary
	c.mu.Unlock()
	if err := c.journalAppend(jrAssign(bucket, p2, s2)); err != nil {
		c.logf("cluster: journal: %v", err)
	}
	return nil
}

// leastLoaded picks the live connected node (≠ exclude) holding the
// fewest buckets.
func (c *Coordinator) leastLoaded(exclude int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leastLoadedLocked(exclude)
}

func (c *Coordinator) leastLoadedLocked(exclude int) int {
	load := make([]int, len(c.nodes))
	for _, bm := range c.buckets {
		if bm.primary >= 0 && bm.primary < len(load) {
			load[bm.primary]++
		}
		if bm.secondary >= 0 && bm.secondary < len(load) {
			load[bm.secondary]++
		}
	}
	best := -1
	for _, n := range c.nodes {
		if n.id == exclude || !c.nodeConnectedLocked(n.id) {
			continue
		}
		if best < 0 || load[n.id] < load[best] {
			best = n.id
		}
	}
	return best
}

// MoveBucket hands one bucket's primary role to dst — the load-
// balancing path (skew): pause → quiesce → fetch-and-drop from the old
// primary → install on dst → reroute → resume. The deferred resume
// guarantees the bucket is never left paused, including when Close
// aborts the move mid-flight.
func (c *Coordinator) MoveBucket(bucket, dst int) error {
	if bucket < 0 || bucket >= len(c.buckets) {
		return fmt.Errorf("cluster: no bucket %d", bucket)
	}
	if !c.nodeAlive(dst) {
		return fmt.Errorf("cluster: destination %d not alive", dst)
	}
	c.mu.Lock()
	bm := c.buckets[bucket]
	src := bm.primary
	sec := bm.secondary
	c.mu.Unlock()
	if src == dst {
		return nil
	}
	if src < 0 {
		return fmt.Errorf("cluster: bucket %d is orphaned", bucket)
	}
	if err := c.pause(bucket); err != nil {
		return err
	}
	defer c.resume(bucket)
	if err := c.quiesce(bucket, c.moveTimeout()); err != nil {
		return err
	}
	d, err := c.ctlRequest(src, appendFetch(nil, bucket, true), mState, c.moveTimeout())
	if err != nil {
		return err
	}
	_ = d.uvarint()
	floor := d.varint()
	st := d.state()
	if d.err != nil {
		return d.err
	}
	if _, err := c.ctlRequest(dst, appendState(nil, mInstall, bucket, floor, st), mInstalled, c.moveTimeout()); err != nil {
		// The old primary already dropped its copy (fetch-and-drop), so a
		// failed install must not strand the bucket stateless: put the
		// state back on the source, or demote the bucket to orphan so the
		// healer promotes the quiesced secondary (everything it might lack
		// is still pending and retransmits on promotion).
		if _, err2 := c.ctlRequest(src, appendState(nil, mInstall, bucket, floor, st), mInstalled, c.moveTimeout()); err2 != nil {
			c.mu.Lock()
			bm.primary = -1
			bm.orphanSince = time.Now()
			p2, s2 := bm.primary, bm.secondary
			c.mu.Unlock()
			if jerr := c.journalAppend(jrAssign(bucket, p2, s2)); jerr != nil {
				c.logf("cluster: journal: %v", jerr)
			}
			c.logf("cluster: move bucket %d: install failed on both %d and %d; orphaned for healing", bucket, dst, src)
		}
		return err
	}
	c.mu.Lock()
	bm.primary = dst
	bm.ackP = floor
	if sec == dst {
		// Keep primary and secondary distinct: the old primary becomes
		// the secondary (it no longer holds state; the floor keeps dedup
		// honest and repair will re-clone if it ever lags).
		bm.secondary = src
		bm.ackS = floor
	}
	c.moves++
	p2, s2 := bm.primary, bm.secondary
	c.mu.Unlock()
	if err := c.journalAppend(jrAssign(bucket, p2, s2)); err != nil {
		c.logf("cluster: journal: %v", err)
	}
	if sec == dst {
		// Re-install the moved state on the new secondary (the old
		// primary dropped its copy in the fetch). On failure, demote the
		// secondary rather than trusting a stateless replica; the healer
		// re-clones a fresh pair.
		if _, err := c.ctlRequest(src, appendState(nil, mInstall, bucket, floor, st), mInstalled, c.moveTimeout()); err != nil {
			c.mu.Lock()
			bm.secondary = -1
			p2, s2 := bm.primary, bm.secondary
			c.mu.Unlock()
			if jerr := c.journalAppend(jrAssign(bucket, p2, s2)); jerr != nil {
				c.logf("cluster: journal: %v", jerr)
			}
			return err
		}
	}
	return nil
}

// --------------------------------------------------------------- egress

// Barrier waits until every routed entry has been acknowledged by its
// bucket's primary.
func (c *Coordinator) Barrier(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return fmt.Errorf("cluster: coordinator closed")
		}
		if c.fenced {
			c.mu.Unlock()
			return fmt.Errorf("cluster: coordinator fenced by a newer epoch")
		}
		done := true
		for _, bm := range c.buckets {
			if bm.paused || len(bm.pauseBuf) > 0 || bm.ackP != bm.nextSeq-1 {
				done = false
				break
			}
		}
		c.mu.Unlock()
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: barrier timeout after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Collect barriers, then merges every bucket's primary state into the
// final grouped result. Orphaned buckets hold no data after a
// successful barrier (nothing was ever assigned to them) and are
// skipped.
func (c *Coordinator) Collect(timeout time.Duration) (BucketState, error) {
	if err := c.Barrier(timeout); err != nil {
		return nil, err
	}
	c.mu.Lock()
	byNode := map[int][]int{}
	for b, bm := range c.buckets {
		if bm.primary >= 0 {
			byNode[bm.primary] = append(byNode[bm.primary], b)
		}
	}
	c.mu.Unlock()
	out := BucketState{}
	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d, err := c.ctlRequest(id, appendCollect(nil, byNode[id]), mCollectReply, c.moveTimeout())
		if err != nil {
			return nil, err
		}
		_ = d.uvarint()
		_ = d.varint()
		st := d.state()
		if d.err != nil {
			return nil, d.err
		}
		out.Merge(st)
	}
	return out, nil
}

// ---------------------------------------------------------------- stats

// Stats are the coordinator's robustness counters.
type Stats struct {
	Routed      int64
	Acked       int64 // entries acknowledged by their bucket's primary
	Retransmits int64
	Promotions  int64
	Moves       int64
	Repairs     int64
	BucketsLost int64
	SendErrors  int64
	Joins       int64 // registry admissions this incarnation
	Epoch       int64
	// Rebalance policy counters: how often the balancer looked, moved
	// (for skew, or to fill a joiner), or held back (hysteresis,
	// cooldown, no beneficial candidate).
	RebalanceChecks    int64
	RebalanceMovesSkew int64
	RebalanceMovesJoin int64
	RebalanceSkips     int64
	// LastDetect is the silence observed when the most recent death was
	// declared — the detection latency the heartbeat deadline bounds.
	LastDetect time.Duration
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Routed: c.routed, Acked: c.acked, Retransmits: c.retransmits,
		Promotions: c.promotions, Moves: c.moves, Repairs: c.repairs,
		BucketsLost: c.bucketsLost, SendErrors: c.sendErrors,
		Joins: c.joins, Epoch: c.epoch,
		RebalanceChecks:    c.bal.checks,
		RebalanceMovesSkew: c.bal.movesSkew,
		RebalanceMovesJoin: c.bal.movesJoin,
		RebalanceSkips:     c.bal.skips,
		LastDetect:         c.lastDetect,
	}
}

// Epoch returns this incarnation's fencing epoch.
func (c *Coordinator) Epoch() int64 { return c.epoch }

// Fenced reports whether a newer coordinator epoch has fenced this one.
func (c *Coordinator) Fenced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// NodeState is one worker's health as the coordinator sees it, reported
// into the tcq_cluster system stream and /metrics.
type NodeState struct {
	ID          int
	Name        string
	Addr        string
	State       string // "up", "disconnected", "dead"
	Primaries   int
	Secondaries int
	Processed   int64
	PongAge     time.Duration
}

// NodeStates snapshots every worker.
func (c *Coordinator) NodeStates() []NodeState {
	c.mu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	prim := make([]int, len(nodes))
	sec := make([]int, len(nodes))
	for _, bm := range c.buckets {
		if bm.primary >= 0 && bm.primary < len(prim) {
			prim[bm.primary]++
		}
		if bm.secondary >= 0 && bm.secondary < len(sec) {
			sec[bm.secondary]++
		}
	}
	c.mu.Unlock()
	out := make([]NodeState, len(nodes))
	for i, n := range nodes {
		n.mu.Lock()
		st := NodeState{
			ID: n.id, Name: n.name, Addr: n.addr, State: "up",
			Primaries: prim[i], Secondaries: sec[i],
			Processed: n.proc, PongAge: time.Since(n.lastPong),
		}
		if !n.alive {
			st.State = "dead"
		} else if n.w == nil {
			st.State = "disconnected"
		}
		n.mu.Unlock()
		out[i] = st
	}
	return out
}

// Register publishes the coordinator's tcq_cluster_* metrics.
func (c *Coordinator) Register(reg *telemetry.Registry) {
	reg.Register(func(emit telemetry.Emit) {
		s := c.Stats()
		counter := func(name, help string, v int64, labels ...telemetry.Label) {
			emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v), Labels: labels})
		}
		gauge := func(name, help string, v float64, labels ...telemetry.Label) {
			emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindGauge, Value: v, Labels: labels})
		}
		counter("tcq_cluster_routed_total", "entries routed to process pairs", s.Routed)
		counter("tcq_cluster_acked_total", "entries acknowledged by their bucket's primary", s.Acked)
		counter("tcq_cluster_retransmits_total", "entries resent after reconnects and failovers", s.Retransmits)
		counter("tcq_cluster_promotions_total", "secondaries promoted to primary", s.Promotions)
		counter("tcq_cluster_moves_total", "buckets handed off for load balancing", s.Moves)
		counter("tcq_cluster_repairs_total", "process pairs restored by state movement", s.Repairs)
		counter("tcq_cluster_buckets_lost_total", "buckets restarted empty (unreplicated primary death)", s.BucketsLost)
		counter("tcq_cluster_send_errors_total", "exchange write failures", s.SendErrors)
		counter("tcq_cluster_joins_total", "workers admitted through the membership registry", s.Joins)
		gauge("tcq_cluster_epoch", "coordinator fencing epoch (journal incarnation)", float64(s.Epoch))
		counter("tcq_cluster_rebalance_checks_total", "skew balancer policy evaluations", s.RebalanceChecks)
		counter("tcq_cluster_rebalance_moves_total", "automatic bucket moves (skew policy)", s.RebalanceMovesSkew, telemetry.L("reason", "skew"))
		counter("tcq_cluster_rebalance_moves_total", "automatic bucket moves (joiner fill)", s.RebalanceMovesJoin, telemetry.L("reason", "join"))
		counter("tcq_cluster_rebalance_skips_total", "balancer holds (hysteresis, cooldown, no beneficial move)", s.RebalanceSkips)
		for _, ns := range c.NodeStates() {
			l := telemetry.L("node", fmt.Sprintf("%d", ns.ID))
			up := 0.0
			switch ns.State {
			case "up":
				up = 1
			case "disconnected":
				up = 0.5
			}
			gauge("tcq_cluster_node_up", "worker health (1 up, 0.5 disconnected, 0 dead)", up, l)
			gauge("tcq_cluster_node_primaries", "buckets the worker runs as primary", float64(ns.Primaries), l)
			gauge("tcq_cluster_node_secondaries", "buckets the worker runs as secondary", float64(ns.Secondaries), l)
			counter("tcq_cluster_node_processed_total", "entries the worker reports folded", ns.Processed, l)
		}
	})
}

// Close stops the detector, healer, and registry, severs worker
// connections (worker state is left in place), journals a final floor
// snapshot, and closes the journal. Any in-flight MoveBucket or
// rebalance aborts promptly — its deferred resume reopens the bucket,
// so no bucket is ever left paused.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	if c.regLn != nil {
		c.regLn.Close()
	}
	for _, n := range c.nodesSnapshot() {
		n.mu.Lock()
		if n.w != nil {
			n.w.close()
			n.w = nil
		}
		n.mu.Unlock()
	}
	c.wg.Wait()
	if c.jr != nil {
		c.journalFloorsNow()
		c.jmu.Lock()
		if err := c.jr.Close(); err != nil {
			c.logf("cluster: journal close: %v", err)
		}
		c.jmu.Unlock()
	}
}
