package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/ingress"
)

// fastBackoff keeps supervised registration loops snappy in tests.
func fastBackoff() ingress.Backoff {
	return ingress.Backoff{Initial: 5 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1}
}

// registerWorker boots a worker and registers it with the coordinator's
// membership registry under the given name.
func registerWorker(t *testing.T, c *Coordinator, name string) *Worker {
	t.Helper()
	w := NewWorker()
	w.Logf = testLogf(t)
	if _, err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("worker %s listen: %v", name, err)
	}
	w.StartRegister(c.RegistryAddr(), name, fastBackoff())
	t.Cleanup(func() { w.Close() })
	return w
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// upNodes counts workers the coordinator sees as live and connected.
func upNodes(c *Coordinator) int {
	up := 0
	for _, ns := range c.NodeStates() {
		if ns.State == "up" {
			up++
		}
	}
	return up
}

// fullyReplicated reports whether every bucket has a live primary and a
// live secondary and is not mid-movement — the precondition for killing
// any single node without losing one acked entry.
func fullyReplicated(c *Coordinator) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, bm := range c.buckets {
		if bm.paused || bm.primary < 0 || bm.secondary < 0 ||
			!c.nodeConnectedLocked(bm.primary) || !c.nodeConnectedLocked(bm.secondary) {
			return false
		}
	}
	return true
}

// A coordinator with only a registry — no static workers — must admit
// self-registering workers at runtime, adopt the orphaned buckets
// losslessly (including entries routed before any worker existed), and
// produce the exact single-process fold.
func TestDynamicJoinBootstrap(t *testing.T) {
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Heartbeat: 50 * time.Millisecond, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(c.Close)

	// Route before any worker exists: every bucket is orphaned, entries
	// pend, and the eventual adoption must replay them.
	want := feed(t, c, 500, 31)

	registerWorker(t, c, "node-a")
	registerWorker(t, c, "node-b")
	waitFor(t, 10*time.Second, "both workers admitted and connected", func() bool { return upNodes(c) == 2 })

	want2 := feed(t, c, 2000, 31)
	want2.Merge(want)
	assertParity(t, c, want2)

	s := c.Stats()
	if s.Joins < 2 {
		t.Fatalf("joins = %d, want ≥ 2", s.Joins)
	}
	if s.BucketsLost != 0 {
		t.Fatalf("lossless bootstrap lost %d buckets", s.BucketsLost)
	}
	// Process pairs must be re-established on the dynamic roster too.
	waitFor(t, 10*time.Second, "full replication", func() bool { return fullyReplicated(c) })
}

// A joiner added to a loaded static cluster must be filled by the
// joiner-rebalance policy: buckets move onto it until its share is
// within one of the per-node average, with parity preserved throughout.
func TestRebalanceOntoJoiner(t *testing.T) {
	c, _ := startCluster(t, 2, Config{Listen: "127.0.0.1:0", Heartbeat: 50 * time.Millisecond})
	want := feed(t, c, 2000, 53)

	registerWorker(t, c, "joiner")
	waitFor(t, 10*time.Second, "joiner connected", func() bool { return upNodes(c) == 3 })

	// 16 buckets over 3 nodes: average 5; the policy fills the joiner to
	// at least avg-1 = 4 primaries.
	waitFor(t, 20*time.Second, "buckets rebalanced onto joiner", func() bool {
		for _, ns := range c.NodeStates() {
			if ns.Name == "joiner" {
				return ns.Primaries >= 4
			}
		}
		return false
	})
	if s := c.Stats(); s.RebalanceMovesJoin == 0 {
		t.Fatalf("joiner filled without any join-rebalance moves: %+v", s)
	}

	want2 := feed(t, c, 2000, 53)
	want2.Merge(want)
	assertParity(t, c, want2)
}

// A crashed worker rejoining under its old name must get a fresh node id
// (death is terminal for an id, not for a worker) and be folded back
// into the shard map, with the failover itself losing nothing.
func TestRejoinAfterCrash(t *testing.T) {
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Heartbeat: 50 * time.Millisecond, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(c.Close)

	wa := registerWorker(t, c, "node-a")
	registerWorker(t, c, "node-b")
	waitFor(t, 10*time.Second, "initial pair connected", func() bool { return upNodes(c) == 2 })
	want := feed(t, c, 2000, 43)
	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	waitFor(t, 10*time.Second, "full replication before crash", func() bool { return fullyReplicated(c) })

	c.mu.Lock()
	oldID := c.byName["node-a"].id
	c.mu.Unlock()
	wa.Close() // crash: listener gone, registration loop stopped
	waitFor(t, 10*time.Second, "node-a declared dead", func() bool {
		for _, ns := range c.NodeStates() {
			if ns.ID == oldID && ns.State == "dead" {
				return true
			}
		}
		return false
	})

	// Rejoin under the same name: a brand-new process, empty state.
	registerWorker(t, c, "node-a")
	waitFor(t, 10*time.Second, "rejoined worker connected", func() bool { return upNodes(c) == 2 })
	rejoinedID := -1
	for _, ns := range c.NodeStates() {
		if ns.Name == "node-a" && ns.State == "up" {
			rejoinedID = ns.ID
		}
	}
	if rejoinedID == oldID || rejoinedID < 0 {
		t.Fatalf("rejoined node-a id %d (dead id %d): %+v", rejoinedID, oldID, c.NodeStates())
	}

	waitFor(t, 10*time.Second, "replication restored onto rejoiner", func() bool { return fullyReplicated(c) })
	want2 := feed(t, c, 2000, 43)
	want2.Merge(want)
	assertParity(t, c, want2)
	s := c.Stats()
	if s.BucketsLost != 0 {
		t.Fatalf("replicated crash lost %d buckets", s.BucketsLost)
	}
	if s.Promotions == 0 {
		t.Fatalf("crash of a loaded primary produced no promotions: %+v", s)
	}
	if s.Joins < 3 {
		t.Fatalf("joins = %d, want ≥ 3 (two initial + rejoin)", s.Joins)
	}
}

// A coordinator restarted from its journal must recover the epoch,
// roster, shard map, and ack floors, reconnect the fleet, and resume
// with zero acked-tuple loss — including after a torn tail write.
func TestCoordinatorJournalRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "coord.journal")
	c1, _ := startCluster(t, 2, Config{Journal: jpath, Heartbeat: 100 * time.Millisecond})
	if c1.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", c1.Epoch())
	}
	want := feed(t, c1, 3000, 61)
	if err := c1.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	c1.Close()

	// Restart purely from the journal: no -workers, no registry needed —
	// the roster and addresses are recovered and re-dialed.
	c2, err := NewCoordinator(Config{Journal: jpath, Heartbeat: 100 * time.Millisecond, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("recovered coordinator: %v", err)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", c2.Epoch())
	}
	if err := c2.Start(); err != nil {
		t.Fatalf("recovered start: %v", err)
	}
	waitFor(t, 10*time.Second, "fleet reconnected after recovery", func() bool { return upNodes(c2) == 2 })

	want2 := feed(t, c2, 2000, 61)
	want2.Merge(want)
	assertParity(t, c2, want2)
	if s := c2.Stats(); s.BucketsLost != 0 {
		t.Fatalf("recovery lost %d buckets", s.BucketsLost)
	}
	c2.Close()

	// Tear the tail: a crash mid-append leaves a torn record the next
	// replay must truncate away rather than refuse to start.
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03}); err != nil {
		t.Fatalf("tear tail: %v", err)
	}
	f.Close()

	c3, err := NewCoordinator(Config{Journal: jpath, Heartbeat: 100 * time.Millisecond, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("recovery from torn tail: %v", err)
	}
	if c3.Epoch() != 3 {
		t.Fatalf("post-torn epoch = %d, want 3", c3.Epoch())
	}
	if err := c3.Start(); err != nil {
		t.Fatalf("torn-tail start: %v", err)
	}
	t.Cleanup(c3.Close)
	waitFor(t, 10*time.Second, "fleet reconnected after torn-tail recovery", func() bool { return upNodes(c3) == 2 })
	want3 := feed(t, c3, 1000, 61)
	want3.Merge(want2)
	assertParity(t, c3, want3)
	if s := c3.Stats(); s.BucketsLost != 0 {
		t.Fatalf("torn-tail recovery lost %d buckets", s.BucketsLost)
	}
}

// Worker-side epoch fencing: a hello from an epoch older than the
// highest seen is refused, and a newer epoch seals every bucket's dedup
// floor past its out-of-order applied set — the old epoch's gaps will
// never be filled.
func TestWorkerEpochFencing(t *testing.T) {
	w := NewWorker()
	w.Logf = testLogf(t)
	e := []Entry{{Key: "k", Val: 1}}

	p1a, p1b := net.Pipe()
	defer p1a.Close()
	defer p1b.Close()
	floors, ok := w.greet(p1a, 0, 1)
	if !ok || len(floors) != 0 {
		t.Fatalf("epoch-1 greet: ok=%v floors=%v", ok, floors)
	}
	// Open a gap under epoch 1: seq 3 applied above floor 0.
	if got := w.applyData(0, 3, e); got != 0 {
		t.Fatalf("floor = %d, want 0", got)
	}

	// A newer coordinator greets: the gap seals (floor jumps to 3).
	p2a, p2b := net.Pipe()
	defer p2a.Close()
	defer p2b.Close()
	floors, ok = w.greet(p2a, 0, 2)
	if !ok || floors[0] != 3 {
		t.Fatalf("epoch-2 greet: ok=%v floors=%v, want sealed floor 3", ok, floors)
	}
	if w.MaxEpoch() != 2 {
		t.Fatalf("max epoch = %d, want 2", w.MaxEpoch())
	}

	// The stale coordinator comes back: refused outright.
	p3a, p3b := net.Pipe()
	defer p3a.Close()
	defer p3b.Close()
	if _, ok := w.greet(p3a, 0, 1); ok {
		t.Fatal("stale epoch-1 hello was accepted")
	}

	// Sealing must not have broken dedup: a retransmit of seq 3 is
	// skipped, the next fresh sequence folds.
	if got := w.applyData(0, 3, e); got != 3 {
		t.Fatalf("floor after sealed retransmit = %d, want 3", got)
	}
	if got := w.applyData(0, 4, e); got != 4 {
		t.Fatalf("floor after seq 4 = %d, want 4", got)
	}
	if s := w.Stats(); s.Processed != 2 || s.Deduped != 1 {
		t.Fatalf("processed=%d deduped=%d, want 2/1", s.Processed, s.Deduped)
	}
}

// Coordinator-side fencing: a join reporting a higher epoch than ours
// proves a newer coordinator owns the cluster — this one must refuse the
// join, fence itself, and stop routing, never split-brain the map.
func TestCoordinatorSelfFence(t *testing.T) {
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Heartbeat: 50 * time.Millisecond, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(c.Close)

	if _, _, err := c.admit("w1", "127.0.0.1:1", 0); err != nil {
		t.Fatalf("plain admit: %v", err)
	}
	if _, _, err := c.admit("w2", "127.0.0.1:2", 7); err == nil {
		t.Fatal("admit with a newer epoch succeeded; split-brain possible")
	}
	if !c.Fenced() {
		t.Fatal("coordinator not fenced after seeing a newer epoch")
	}
	if err := c.Route("x", 1); err == nil {
		t.Fatal("fenced coordinator still routes")
	}
	if err := c.Barrier(time.Second); err == nil {
		t.Fatal("fenced coordinator still passes barriers")
	}
}

// hotKeys returns distinct keys whose buckets all land on primaries of
// the given parity under the static b%2 assignment — a worst-case
// content skew aimed at one node.
func hotKeys(buckets, parity, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("h%05d", i)
		if BucketOf(k, buckets)%2 == parity {
			keys = append(keys, k)
		}
	}
	return keys
}

// A sustained hot node must trigger at least one automatic skew move —
// and only after the hysteresis streak, onto the cold node, with exact
// parity preserved under the concurrent traffic.
func TestSkewAutoMove(t *testing.T) {
	cfg := Config{
		Heartbeat: 40 * time.Millisecond,
		Balance:   BalanceConfig{Interval: 80 * time.Millisecond, After: 2, Cooldown: 2, MinRate: 50},
	}
	c, _ := startCluster(t, 2, cfg)

	// All traffic lands on node 0's primaries (even buckets).
	keys := hotKeys(16, 0, 24)
	want := BucketState{}
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[rng.Intn(len(keys))]
			v := float64(i%9) - 4
			if err := c.Route(k, v); err != nil {
				return
			}
			mu.Lock()
			want.Fold(k, v)
			mu.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	waitFor(t, 30*time.Second, "automatic skew move", func() bool {
		return c.Stats().RebalanceMovesSkew >= 1
	})
	close(stop)
	wg.Wait()

	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	mu.Lock()
	ref := want.Clone()
	mu.Unlock()
	assertParity(t, c, ref)

	// The move must actually shed load: node 1 now runs at least one of
	// the formerly node-0 primaries.
	moved := false
	c.mu.Lock()
	for b, bm := range c.buckets {
		if b%2 == 0 && bm.primary == 1 {
			moved = true
		}
	}
	c.mu.Unlock()
	if !moved {
		t.Fatal("skew move recorded but no even bucket runs on node 1")
	}
	s := c.Stats()
	if s.RebalanceChecks == 0 || s.RebalanceSkips == 0 {
		t.Fatalf("policy counters implausible (hysteresis never held): %+v", s)
	}
	t.Logf("skew: %d checks, %d moves, %d skips", s.RebalanceChecks, s.RebalanceMovesSkew, s.RebalanceSkips)
}

// A uniform workload must never trigger the balancer: hysteresis and the
// hot-ratio threshold make zero moves the steady state, so the policy
// cannot flap.
func TestUniformWorkloadNoFlap(t *testing.T) {
	cfg := Config{
		Heartbeat: 40 * time.Millisecond,
		Balance:   BalanceConfig{Interval: 80 * time.Millisecond, After: 2, Cooldown: 2, MinRate: 50},
	}
	c, _ := startCluster(t, 2, cfg)
	want := BucketState{}
	// Route uniformly across many intervals so the policy gets plenty of
	// chances to misfire.
	for i := 0; i < 6000; i++ {
		k := fmt.Sprintf("u%03d", i%97)
		v := float64(i%11) - 5
		if err := c.Route(k, v); err != nil {
			t.Fatalf("route: %v", err)
		}
		want.Fold(k, v)
		if i%200 == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	assertParity(t, c, want)
	s := c.Stats()
	if s.RebalanceChecks == 0 {
		t.Fatal("balancer never ran")
	}
	if s.RebalanceMovesSkew != 0 || s.RebalanceMovesJoin != 0 || s.Moves != 0 {
		t.Fatalf("uniform workload triggered moves: %+v", s)
	}
}

// MoveBucket under concurrent traffic and seeded connection chaos —
// drops and delayed acks racing the pause→quiesce→install handoff —
// must keep the fold exact: every failure path either restores the
// source or hands the bucket to the healer.
func TestMoveBucketUnderChaos(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 11, ConnDrop: 0.0008, AckDelay: 0.05, AckDelayFor: 2 * time.Millisecond})
	c, _ := startCluster(t, 3, Config{Heartbeat: 100 * time.Millisecond}, func(w *Worker) { w.SetChaos(inj) })

	want := BucketState{}
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("m%03d", i%71)
			v := float64(i%13) - 6
			if err := c.Route(k, v); err != nil {
				return
			}
			mu.Lock()
			want.Fold(k, v)
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Keep moving buckets around while the traffic and the chaos run;
	// individual moves may fail (that is the point), but at least two
	// must land.
	deadline := time.Now().Add(30 * time.Second)
	moved := 0
	for b := 0; moved < 4 && time.Now().Before(deadline); b = (b + 1) % 8 {
		c.mu.Lock()
		src := c.buckets[b].primary
		c.mu.Unlock()
		if src < 0 {
			continue // orphaned mid-heal; the healer owns it
		}
		dst := (src + 1) % 3
		if err := c.MoveBucket(b, dst); err != nil {
			t.Logf("move bucket %d → %d (tolerated under chaos): %v", b, dst, err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		moved++
	}
	close(stop)
	wg.Wait()
	if moved < 2 {
		t.Fatalf("only %d moves landed under chaos", moved)
	}

	if err := c.Barrier(30 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	mu.Lock()
	ref := want.Clone()
	mu.Unlock()
	assertParity(t, c, ref)
	t.Logf("chaos moves: %d landed, stats %+v, faults %+v", moved, c.Stats(), inj.Stats())
}

// Close during an in-flight MoveBucket must abort the move promptly and
// must never leave the quiesced bucket paused — the regression the Stop
// path once had.
func TestCloseAbortsInflightMove(t *testing.T) {
	// Acks delayed far beyond the test horizon: quiesce cannot complete,
	// so the move is reliably in flight when Close lands.
	slow := chaos.New(chaos.Config{Seed: 3, AckDelay: 1, AckDelayFor: 30 * time.Second})
	c, _ := startCluster(t, 2, Config{Heartbeat: 100 * time.Millisecond}, func(w *Worker) { w.SetChaos(slow) })

	feed(t, c, 50, 7) // unacked traffic into every bucket
	c.mu.Lock()
	src := c.buckets[0].primary
	c.mu.Unlock()

	moveErr := make(chan error, 1)
	go func() { moveErr <- c.MoveBucket(0, (src+1)%2) }()
	waitFor(t, 5*time.Second, "bucket paused by the move", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.buckets[0].paused
	})

	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case err := <-moveErr:
		if err == nil {
			t.Fatal("in-flight move reported success during Close")
		}
		t.Logf("move aborted: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight move did not abort within 10s of Close")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged behind the aborted move")
	}
	c.mu.Lock()
	paused := c.buckets[0].paused
	c.mu.Unlock()
	if paused {
		t.Fatal("bucket left paused after aborted move")
	}
}

// Batched acks must not change the coordinator's floor math: every
// routed entry is credited exactly once, floors land exactly on the
// assigned high-water mark, and the codec round-trips.
func TestBatchedAckFloorMath(t *testing.T) {
	// Codec round trip.
	frame := appendAckBatch(nil, []int{3, 0, 12}, []int64{7, 41, 0})
	if frame[0] != mAckBatch {
		t.Fatalf("type = %d", frame[0])
	}
	d := &decoder{buf: frame[1:]}
	got := decodeFloorPairs(d)
	if d.err != nil || len(got) != 3 || got[3] != 7 || got[0] != 41 || got[12] != 0 {
		t.Fatalf("round trip = %v err=%v", got, d.err)
	}

	// End to end: acks arrive only as coalesced batches (the worker's
	// flusher), and after a barrier the credit must be exact — no entry
	// double-counted across skipped intermediate floors, none missed.
	c, _ := startCluster(t, 2, Config{Heartbeat: 100 * time.Millisecond})
	want := feed(t, c, 3000, 47)
	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if s := c.Stats(); s.Acked != 3000 {
		t.Fatalf("acked = %d, want exactly 3000", s.Acked)
	}
	c.mu.Lock()
	for b, bm := range c.buckets {
		if bm.ackP != bm.nextSeq-1 {
			c.mu.Unlock()
			t.Fatalf("bucket %d floor %d != assigned %d after barrier", b, bm.ackP, bm.nextSeq-1)
		}
	}
	c.mu.Unlock()
	// A second wave must credit exactly once more.
	want2 := feed(t, c, 2000, 47)
	want2.Merge(want)
	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier 2: %v", err)
	}
	if s := c.Stats(); s.Acked != 5000 {
		t.Fatalf("acked = %d, want exactly 5000", s.Acked)
	}
	assertParity(t, c, want2)
}

// Thirty rounds of seeded join/leave storm: workers join and crash at
// random (chaos.Churn decides), every kill waits for full replication so
// zero acked loss is the contract, and the final fold must be exact.
func TestMembershipChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("membership churn soak skipped in -short")
	}
	inj := chaos.New(chaos.Config{Seed: 31, Churn: 0.5})
	c, err := NewCoordinator(Config{Listen: "127.0.0.1:0", Heartbeat: 50 * time.Millisecond, Logf: testLogf(t)})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(c.Close)

	want := BucketState{}
	type member struct {
		name string
		w    *Worker
	}
	var live []member
	nextName := 0
	join := func() {
		name := fmt.Sprintf("n%02d", nextName)
		nextName++
		live = append(live, member{name: name, w: registerWorker(t, c, name)})
	}
	join()
	join()
	waitFor(t, 10*time.Second, "seed pair connected", func() bool { return upNodes(c) == 2 })

	joins, kills := 0, 0
	for round := 0; round < 30; round++ {
		if len(live) >= 2 && inj.Churn() {
			// Leave: wait until every bucket is replicated on live nodes,
			// then crash the oldest member — zero acked loss required.
			waitFor(t, 30*time.Second, fmt.Sprintf("round %d replication before kill", round), func() bool { return fullyReplicated(c) })
			victim := live[0]
			live = live[1:]
			victim.w.Close()
			kills++
			t.Logf("round %d: killed %s (%d live)", round, victim.name, len(live))
		} else {
			join()
			joins++
			t.Logf("round %d: joined %s (%d live)", round, live[len(live)-1].name, len(live))
		}
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("c%02d-%02d", round, i%17)
			v := float64(i%7) - 3
			if err := c.Route(k, v); err != nil {
				t.Fatalf("round %d route: %v", round, err)
			}
			want.Fold(k, v)
		}
	}
	// Settle: make sure at least two members survive the storm, let the
	// healer finish, and verify the fold.
	for len(live) < 2 {
		join()
		joins++
	}
	waitFor(t, 30*time.Second, "post-storm replication", func() bool { return fullyReplicated(c) })
	if err := c.Barrier(30 * time.Second); err != nil {
		t.Fatalf("final barrier: %v", err)
	}
	assertParity(t, c, want)
	s := c.Stats()
	if s.BucketsLost != 0 {
		t.Fatalf("churn storm lost %d buckets", s.BucketsLost)
	}
	if joins == 0 || kills == 0 {
		t.Fatalf("storm degenerate: %d joins, %d kills (seed drift?)", joins, kills)
	}
	if s.Joins < int64(joins) {
		t.Fatalf("coordinator admitted %d, storm joined %d", s.Joins, joins)
	}
	t.Logf("churn soak: %d joins, %d kills, stats %+v", joins, kills, s)
}
