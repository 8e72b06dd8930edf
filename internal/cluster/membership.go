package cluster

import (
	"fmt"
	"net"
	"time"
)

// Dynamic membership and self-healing. The coordinator runs a registry
// listener workers dial to join (HELLO → ADMIT); admitted workers are
// dialed back on their exchange address and folded into the shard map
// by the healer, which owns every repair policy that is not an
// immediate failover: orphaned-bucket adoption, process-pair
// re-establishment, bucket fill onto joiners, the skew balancer, and
// periodic floor journaling.

// listenRegistry binds the membership registry and serves joins until
// Close; returns the bound address (use ":0" in tests).
func (c *Coordinator) listenRegistry(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.regLn = ln
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveRegistry(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// RegistryAddr returns the bound registry address ("" when membership
// is static).
func (c *Coordinator) RegistryAddr() string {
	if c.regLn == nil {
		return ""
	}
	return c.regLn.Addr().String()
}

// serveRegistry handles one JOIN: short-lived, deadline-bounded; the
// durable relationship is the exchange connection dialed back.
func (c *Coordinator) serveRegistry(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	wr := newWire(conn)
	payload, err := wr.readFrame()
	if err != nil || len(payload) == 0 || payload[0] != mJoin {
		return
	}
	d := &decoder{buf: payload[1:]}
	name := string(d.bytes(d.uvarint()))
	exchangeAddr := string(d.bytes(d.uvarint()))
	maxEpoch := d.varint()
	if d.err != nil || name == "" || exchangeAddr == "" {
		return
	}
	id, epoch, err := c.admit(name, exchangeAddr, maxEpoch)
	if err != nil {
		c.logf("cluster: join %q (%s) refused: %v", name, exchangeAddr, err)
		return // no admit: the worker retries under backoff
	}
	if err := wr.writeFrame(appendAdmit(nil, id, epoch)); err != nil {
		return
	}
	c.logf("cluster: admitted %q as node %d (exchange %s, epoch %d)", name, id, exchangeAddr, epoch)
}

// admit folds one join into the roster. Identity is the worker's name:
// a known live worker re-registering keeps its id (its floors and
// assignments survive a reconnect or an address change); a name whose
// node was declared dead gets a fresh id — death is terminal for an id,
// never for a worker. A join reporting an epoch above ours means a
// newer coordinator owns this cluster: self-fence instead of admitting,
// so a slow old process can never split-brain the bucket map.
func (c *Coordinator) admit(name, addr string, maxEpoch int64) (int, int64, error) {
	var rec []byte
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("coordinator closed")
	}
	if maxEpoch > c.epoch {
		c.fenced = true
		c.mu.Unlock()
		c.logf("cluster: FENCED — worker %q has seen epoch %d, ours is %d; refusing to route", name, maxEpoch, c.epoch)
		return 0, 0, fmt.Errorf("stale coordinator: epoch %d < %d", c.epoch, maxEpoch)
	}
	n := c.byName[name]
	if n != nil {
		n.mu.Lock()
		if n.alive {
			if n.addr != addr {
				n.addr = addr
				if n.w != nil {
					n.w.close() // monitor redials the new address
					n.w = nil
				}
				rec = jrNode(n.id, name, addr)
			}
			n.lastPong = time.Now() // fresh grace for the dial-back
			n.pingSent = time.Time{}
			id := n.id
			n.mu.Unlock()
			c.joins++
			c.mu.Unlock()
			if err := c.journalAppend(rec); err != nil {
				c.logf("cluster: journal: %v", err)
			}
			return id, c.epoch, nil
		}
		n.mu.Unlock() // dead id: fall through to a fresh one
	}
	id := len(c.nodes)
	nn := &node{id: id, name: name, addr: addr, alive: true, ctl: make(chan []byte, 1), lastPong: time.Now()}
	c.nodes = append(c.nodes, nn)
	c.byName[name] = nn
	c.joins++
	rec = jrNode(id, name, addr)
	c.mu.Unlock()
	if err := c.journalAppend(rec); err != nil {
		c.logf("cluster: journal: %v", err)
	}
	return id, c.epoch, nil
}

// reconcileFloors folds a worker's floor report (the first frame after
// every exchange hello) into the shard map. For each bucket the node is
// assigned, the worker is the source of truth above the journaled
// floor: its floor raises ackP/ackS, the acked high-water mark (without
// re-crediting the acked counter — those entries were acked by a
// previous incarnation), and nextSeq. A report *below* the recorded
// floor means the worker lost its state (crashed and rejoined empty):
// the replica is demoted to orphan/unreplicated and the healer takes
// over — promoting the surviving replica instead of trusting a hole.
func (c *Coordinator) reconcileFloors(n *node, floors map[int]int64) {
	var recs [][]byte
	c.mu.Lock()
	for b, bm := range c.buckets {
		if bm.primary == n.id {
			f := floors[b] // 0 when unreported: an empty worker
			switch {
			case f >= bm.ackP:
				bm.ackP = f
				if f > bm.ackHi {
					bm.ackHi = f
				}
				if f+1 > bm.nextSeq {
					bm.nextSeq = f + 1
				}
			default:
				bm.primary = -1
				bm.orphanSince = time.Now()
				recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
			}
		}
		if bm.secondary == n.id {
			f := floors[b]
			switch {
			case f >= bm.ackS:
				bm.ackS = f
				if f+1 > bm.nextSeq {
					bm.nextSeq = f + 1
				}
			default:
				bm.secondary = -1
				recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
			}
		}
	}
	c.mu.Unlock()
	if len(recs) > 0 {
		c.logf("cluster: node %d rejoined without state for %d replicas; healing", n.id, len(recs))
	}
	if err := c.journalAppend(recs...); err != nil {
		c.logf("cluster: journal: %v", err)
	}
}

// --------------------------------------------------------------- healer

// healer is the repair policy loop: every heartbeat it adopts orphaned
// buckets (promote the surviving secondary, or bootstrap/reinit onto a
// connected node), re-establishes process pairs left unreplicated by
// failovers, fills joiners by moving buckets onto under-loaded nodes,
// runs the skew balancer, and periodically journals ack floors.
func (c *Coordinator) healer() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Heartbeat)
	defer tick.Stop()
	pass := 0
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		pass++
		c.mu.Lock()
		fenced := c.fenced
		c.mu.Unlock()
		if fenced {
			continue // a newer coordinator owns the cluster now
		}
		c.healOrphans()
		if c.repl {
			c.healReplication()
		}
		if pass%5 == 0 {
			c.rebalanceJoiners()
		}
		c.balanceTick()
		if c.jr != nil && pass%4 == 0 {
			c.journalFloorsNow()
		}
	}
}

// orphanFix is one planned reassignment of an ownerless bucket.
type orphanFix struct {
	bucket int
	dst    int
	floor  int64
	lossy  bool // true: entries ≤ floor are being abandoned (BucketsLost)
}

// healOrphans adopts buckets with no live primary. Preference order:
// promote a surviving secondary (zero acked loss); replay the full
// pend list onto an empty install when nothing was ever released
// (lossless bootstrap — also the fresh-bucket case of a dynamic-only
// cluster); after OrphanGrace with neither possible, restart the bucket
// empty past the abandoned range (BucketsLost records the damage).
func (c *Coordinator) healOrphans() {
	now := time.Now()
	var promos []int // new primary ids to retransmit
	var fixes []orphanFix
	var recs [][]byte
	c.mu.Lock()
	for b, bm := range c.buckets {
		if bm.primary >= 0 || bm.paused {
			continue
		}
		if bm.secondary >= 0 && c.nodeLiveLocked(bm.secondary) {
			bm.primary = bm.secondary
			bm.secondary = -1
			if bm.ackS > bm.ackHi {
				c.acked += bm.ackS - bm.ackHi
				bm.ackHi = bm.ackS
			}
			bm.ackP = bm.ackS
			c.promotions++
			promos = append(promos, bm.primary)
			recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
			continue
		}
		dst := c.leastLoadedLocked(-1)
		if dst < 0 {
			continue // nobody connected; keep waiting
		}
		// Lossless when the pend list still covers everything ever
		// assigned: install an empty state at floor 0 and replay.
		if bm.ackHi == 0 && int64(len(bm.pend)) == bm.nextSeq-1 {
			fixes = append(fixes, orphanFix{bucket: b, dst: dst, floor: 0})
		} else if now.Sub(bm.orphanSince) > c.cfg.OrphanGrace {
			fixes = append(fixes, orphanFix{bucket: b, dst: dst, floor: bm.nextSeq - 1, lossy: true})
		}
	}
	c.mu.Unlock()
	if err := c.journalAppend(recs...); err != nil {
		c.logf("cluster: journal: %v", err)
	}
	for _, p := range dedupInts(promos) {
		c.logf("cluster: healer promoted node %d for orphaned buckets", p)
		c.retransmit(p)
	}
	for _, fx := range fixes {
		if err := c.adoptOrphan(fx); err != nil {
			c.logf("cluster: adopt bucket %d on node %d: %v", fx.bucket, fx.dst, err)
		}
	}
}

// adoptOrphan installs an empty state at the planned floor on the
// destination and takes ownership. The install always happens — even at
// floor 0 — so any stale replica the node holds from an earlier epoch
// is superseded rather than folded into.
func (c *Coordinator) adoptOrphan(fx orphanFix) error {
	if _, err := c.ctlRequest(fx.dst, appendState(nil, mInstall, fx.bucket, fx.floor, BucketState{}), mInstalled, c.moveTimeout()); err != nil {
		return err
	}
	c.mu.Lock()
	bm := c.buckets[fx.bucket]
	if bm.primary >= 0 {
		c.mu.Unlock()
		return nil // someone else adopted it while we were installing
	}
	bm.primary = fx.dst
	if fx.lossy {
		// Abandon the unrecoverable range: credit it so barriers
		// terminate, drop its pend entries, record the damage.
		if d := fx.floor - bm.ackHi; d > 0 {
			c.acked += d
			bm.ackHi = fx.floor
		}
		if fx.floor > bm.ackP {
			bm.ackP = fx.floor
		}
		i := 0
		for i < len(bm.pend) && bm.pend[i].seq <= fx.floor {
			i++
		}
		if i > 0 {
			bm.pend = append(bm.pend[:0], bm.pend[i:]...)
		}
		c.bucketsLost++
	}
	p2, s2 := bm.primary, bm.secondary
	c.mu.Unlock()
	if err := c.journalAppend(jrAssign(fx.bucket, p2, s2)); err != nil {
		c.logf("cluster: journal: %v", err)
	}
	if fx.lossy {
		c.logf("cluster: bucket %d restarted empty on node %d (floor %d; orphan grace expired)", fx.bucket, fx.dst, fx.floor)
	} else {
		c.logf("cluster: bucket %d adopted by node %d (lossless replay)", fx.bucket, fx.dst)
	}
	c.retransmit(fx.dst)
	return nil
}

// healReplication restores process pairs for buckets left unreplicated
// by failovers or floor demotions, a few per pass so state movement
// never floods the exchange.
func (c *Coordinator) healReplication() {
	const perPass = 4
	var todo []int
	c.mu.Lock()
	connected := 0
	for _, n := range c.nodes {
		if c.nodeConnectedLocked(n.id) {
			connected++
		}
	}
	if connected >= 2 {
		for b, bm := range c.buckets {
			if bm.secondary < 0 && bm.primary >= 0 && !bm.paused && c.nodeConnectedLocked(bm.primary) {
				todo = append(todo, b)
				if len(todo) == perPass {
					break
				}
			}
		}
	}
	c.mu.Unlock()
	for _, b := range todo {
		if err := c.repairReplication(b); err != nil {
			c.logf("cluster: repair bucket %d: %v", b, err)
		}
	}
}

// rebalanceJoiners fills under-loaded nodes (fresh joiners foremost):
// when a connected node holds at least two primaries fewer than the
// per-node average, buckets move onto it from the most-loaded node —
// coldest buckets first, so this never fights the skew balancer over a
// hot bucket. At most two moves per pass keeps handoff traffic bounded.
func (c *Coordinator) rebalanceJoiners() {
	const perPass = 2
	type move struct{ bucket, dst int }
	var moves []move
	c.mu.Lock()
	var conn []int
	count := map[int]int{}
	for _, n := range c.nodes {
		if c.nodeConnectedLocked(n.id) {
			conn = append(conn, n.id)
			count[n.id] = 0
		}
	}
	if len(conn) >= 2 {
		assigned := 0
		for _, bm := range c.buckets {
			if bm.primary >= 0 {
				assigned++
				if _, ok := count[bm.primary]; ok {
					count[bm.primary]++
				}
			}
		}
		avg := assigned / len(conn)
		taken := map[int]bool{}
		for _, dst := range conn {
			for count[dst] < avg-1 && len(moves) < perPass {
				// Donate from the most-loaded node its coldest bucket.
				srcID, srcMax := -1, -1
				for _, id := range conn {
					if count[id] > srcMax {
						srcID, srcMax = id, count[id]
					}
				}
				if srcID < 0 || srcID == dst || srcMax <= avg {
					break
				}
				best, bestRouted := -1, int64(-1)
				for b, bm := range c.buckets {
					if bm.primary != srcID || bm.paused || taken[b] {
						continue
					}
					if best < 0 || bm.routed < bestRouted {
						best, bestRouted = b, bm.routed
					}
				}
				if best < 0 {
					break
				}
				taken[best] = true
				count[srcID]--
				count[dst]++
				moves = append(moves, move{bucket: best, dst: dst})
			}
		}
	}
	c.mu.Unlock()
	for _, mv := range moves {
		if err := c.MoveBucket(mv.bucket, mv.dst); err != nil {
			c.logf("cluster: joiner rebalance bucket %d → node %d: %v", mv.bucket, mv.dst, err)
			continue
		}
		c.mu.Lock()
		c.bal.movesJoin++
		c.mu.Unlock()
		c.logf("cluster: joiner rebalance moved bucket %d → node %d", mv.bucket, mv.dst)
	}
}

// journalCompactSize triggers a rewrite: past this, the journal is
// mostly superseded records and a fresh snapshot is cheaper to replay.
const journalCompactSize = 4 << 20

// journalFloorsNow snapshots every bucket's released floor and
// high-water mark into one jFloors record, and compacts the journal
// when it has grown past the rewrite threshold.
func (c *Coordinator) journalFloorsNow() {
	if c.jr == nil {
		return
	}
	c.mu.Lock()
	fl := make([]journalFloor, len(c.buckets))
	for b, bm := range c.buckets {
		fl[b] = journalFloor{bucket: b, floor: bm.release(), hi: bm.nextSeq - 1}
	}
	c.mu.Unlock()
	if err := c.journalAppend(jrFloors(fl)); err != nil {
		c.logf("cluster: journal: %v", err)
		return
	}
	c.jmu.Lock()
	size := c.jr.Size()
	c.jmu.Unlock()
	if size > journalCompactSize {
		c.compactJournal()
	}
}

// compactJournal rewrites the journal as one snapshot of the live
// state: epoch, bucket count, roster, shard map, floors.
func (c *Coordinator) compactJournal() {
	c.mu.Lock()
	recs := [][]byte{jrEpoch(c.epoch), jrBuckets(len(c.buckets))}
	for _, n := range c.nodes {
		n.mu.Lock()
		alive := n.alive
		name, addr := n.name, n.addr
		n.mu.Unlock()
		recs = append(recs, jrNode(n.id, name, addr))
		if !alive {
			recs = append(recs, jrDead(n.id))
		}
	}
	fl := make([]journalFloor, len(c.buckets))
	for b, bm := range c.buckets {
		recs = append(recs, jrAssign(b, bm.primary, bm.secondary))
		fl[b] = journalFloor{bucket: b, floor: bm.release(), hi: bm.nextSeq - 1}
	}
	recs = append(recs, jrFloors(fl))
	c.mu.Unlock()
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if err := c.jr.Rewrite(recs); err != nil {
		c.logf("cluster: journal compaction: %v", err)
		return
	}
	c.logf("cluster: journal compacted to %d bytes", c.jr.Size())
}

func dedupInts(in []int) []int {
	seen := map[int]bool{}
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
