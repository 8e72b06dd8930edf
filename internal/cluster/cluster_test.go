package cluster

import (
	"fmt"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
)

// testLogf routes node logs through the test log so failures carry the
// cluster's own narrative.
func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// startCluster boots n workers and a coordinator over loopback TCP;
// setup hooks run on each worker before it starts listening.
func startCluster(t *testing.T, n int, cfg Config, setup ...func(*Worker)) (*Coordinator, []*Worker) {
	t.Helper()
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker()
		w.Logf = testLogf(t)
		for _, fn := range setup {
			fn(w)
		}
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("worker %d listen: %v", i, err)
		}
		workers[i] = w
		cfg.Workers = append(cfg.Workers, addr)
	}
	if cfg.Heartbeat == 0 {
		// Generous for loopback: the race detector's scheduling jitter
		// must never read as worker silence.
		cfg.Heartbeat = 200 * time.Millisecond
	}
	cfg.Logf = testLogf(t)
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		for _, w := range workers {
			w.Close()
		}
	})
	return c, workers
}

// feed routes count synthetic observations and returns the reference
// fold — what a single process would compute from the same stream.
func feed(t *testing.T, c *Coordinator, count, keys int) BucketState {
	t.Helper()
	want := BucketState{}
	for i := 0; i < count; i++ {
		key := fmt.Sprintf("g%03d", i%keys)
		val := float64(i%17) - 8
		if err := c.Route(key, val); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		want.Fold(key, val)
	}
	return want
}

// assertParity fails unless the cluster's collected result matches the
// reference fold exactly.
func assertParity(t *testing.T, c *Coordinator, want BucketState) {
	t.Helper()
	got, err := c.Collect(10 * time.Second)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("collected %d groups, want %d", len(got), len(want))
	}
	for _, k := range want.Keys() {
		g, w := got[k], want[k]
		if g == nil || g.Count != w.Count || g.Sum != w.Sum {
			t.Fatalf("group %q: got %+v, want %+v", k, g, w)
		}
	}
}

// A healthy 3-worker cluster must produce the exact single-process fold.
func TestClusterParity(t *testing.T) {
	c, workers := startCluster(t, 3, Config{})
	want := feed(t, c, 5000, 97)
	assertParity(t, c, want)
	s := c.Stats()
	if s.Routed != 5000 || s.Acked != 5000 {
		t.Fatalf("routed=%d acked=%d, want 5000/5000", s.Routed, s.Acked)
	}
	if s.Promotions != 0 || s.BucketsLost != 0 {
		t.Fatalf("healthy run recorded failures: %+v", s)
	}
	// Process pairs: every entry folds on a primary and a secondary.
	var folded int64
	for _, w := range workers {
		folded += w.Stats().Processed
	}
	if folded != 2*5000 {
		t.Fatalf("workers folded %d entries, want %d (pairs)", folded, 2*5000)
	}
}

// Killing a primary mid-stream must promote its secondaries within two
// heartbeat intervals and lose zero acked entries.
func TestFailoverZeroAckedLoss(t *testing.T) {
	hb := 400 * time.Millisecond
	// Ack delays keep a sliver of entries perpetually in flight, so the
	// promotion always has an unacked window to retransmit — the exact
	// ambiguity (applied but unacknowledged) dedup must absorb.
	delay := chaos.New(chaos.Config{Seed: 9, AckDelay: 0.3, AckDelayFor: time.Millisecond})
	c, workers := startCluster(t, 3, Config{Heartbeat: hb}, func(w *Worker) { w.SetChaos(delay) })
	want := feed(t, c, 3000, 61)
	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("pre-kill barrier: %v", err)
	}

	killed := time.Now()
	workers[0].Close() // abrupt: listener gone, live connections severed

	// Keep routing through the entire failure window — detection,
	// promotion, repair — so entries are genuinely in flight when the
	// secondary takes over. The ping deadline is 1.25 heartbeats and the
	// monitor ticks every eighth of an interval, so detection must land
	// within 2 intervals of the last sign of life; allow scheduling
	// slack on the wall-clock check.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; c.Stats().Promotions == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no promotion after 10s")
		}
		key := fmt.Sprintf("g%03d", i%61)
		val := float64(i%17) - 8
		if err := c.Route(key, val); err != nil {
			t.Fatalf("route after kill: %v", err)
		}
		want.Fold(key, val)
		// Throttle to a realistic ingest rate: an unthrottled spin
		// builds a megabyte-deep backlog that turns the rest of the
		// test into a drain benchmark.
		time.Sleep(200 * time.Microsecond)
	}
	detected := time.Since(killed)
	s := c.Stats()
	if s.LastDetect > 2*hb {
		t.Fatalf("declared silence %v exceeds 2 heartbeats (%v)", s.LastDetect, 2*hb)
	}
	if detected > 2*hb+500*time.Millisecond {
		t.Fatalf("promotion took %v wall-clock", detected)
	}
	if s.BucketsLost != 0 {
		t.Fatalf("%d buckets lost despite replication", s.BucketsLost)
	}

	assertParity(t, c, want)
	// Retransmits at promotion only cover acks still in flight when the
	// primary died — racy by nature, so informational here. The
	// mandatory retransmit path is pinned by TestReconnectRetransmit.
	s = c.Stats()
	t.Logf("failover: %d retransmits, detection %v", s.Retransmits, s.LastDetect)
	if s.BucketsLost != 0 {
		t.Fatalf("%d buckets lost by the end of the scenario", s.BucketsLost)
	}
	// Replication must be repaired onto the survivors.
	repairDeadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		missing := 0
		for _, bm := range c.buckets {
			if bm.secondary < 0 {
				missing++
			}
		}
		c.mu.Unlock()
		if missing == 0 {
			break
		}
		if time.Now().After(repairDeadline) {
			t.Fatalf("%d buckets still unreplicated after 10s", missing)
		}
		time.Sleep(time.Millisecond)
	}
	// And the repaired pairs must still fold correctly.
	want2 := feed(t, c, 1000, 61)
	want2.Merge(want)
	assertParity(t, c, want2)
}

// A severed connection to a live worker is not a death: the monitor
// must reconnect and retransmit every entry the worker missed, and the
// worker's dedup must absorb the overlap — at-least-once delivery over
// an unreliable link, with no promotion involved.
func TestReconnectRetransmit(t *testing.T) {
	// A long heartbeat keeps the severed link from ever looking like a
	// node death, even under race-detector scheduling.
	c, workers := startCluster(t, 2, Config{Heartbeat: 500 * time.Millisecond})
	want := feed(t, c, 1000, 37)
	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	// Sever-then-route until a retransmission is observed: entries
	// routed before the monitor redials can only reach the worker via
	// the reconnect catch-up. (A single round could in principle race a
	// same-instant reconnect; every round folds into the reference, so
	// retrying keeps the accounting exact.)
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; c.Stats().Retransmits == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatal("no retransmit after 20s of severed connections")
		}
		workers[1].mu.Lock()
		for conn := range workers[1].conns {
			conn.Close()
		}
		workers[1].mu.Unlock()
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("r%02d-%03d", round%100, i%37)
			if err := c.Route(key, float64(i%13)); err != nil {
				t.Fatalf("route: %v", err)
			}
			want.Fold(key, float64(i%13))
		}
	}
	assertParity(t, c, want)
	s := c.Stats()
	if s.Promotions != 0 || s.BucketsLost != 0 {
		t.Fatalf("link loss escalated to node death: %+v", s)
	}
	var deduped int64
	for _, w := range workers {
		deduped += w.Stats().Deduped
	}
	t.Logf("reconnect: %d retransmits, %d deduped", s.Retransmits, deduped)
}

// With every worker dead, declareDead must terminate cleanly rather
// than wedge the coordinator.
func TestAllWorkersDead(t *testing.T) {
	c, workers := startCluster(t, 2, Config{Heartbeat: 100 * time.Millisecond})
	feed(t, c, 100, 7)
	for _, w := range workers {
		w.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		dead := 0
		for _, ns := range c.NodeStates() {
			if ns.State == "dead" {
				dead++
			}
		}
		if dead == len(workers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never declared dead")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Route("x", 1); err != nil {
		t.Fatalf("route into dead cluster should buffer/pend, got %v", err)
	}
}

// Connection-level chaos — seeded drops and delayed acks — must not
// change the answer: reconnects retransmit and dedup absorbs the
// overlap.
func TestDedupUnderConnChaos(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 42, ConnDrop: 0.002, AckDelay: 0.02, AckDelayFor: time.Millisecond})
	c, workers := startCluster(t, 3, Config{}, func(w *Worker) { w.SetChaos(inj) })
	want := feed(t, c, 4000, 83)
	assertParity(t, c, want)
	if inj.Stats().ConnDrops == 0 {
		t.Skip("seed produced no connection drops; parity trivially held")
	}
	if c.Stats().Retransmits == 0 {
		t.Fatal("connections dropped but nothing was retransmitted")
	}
	var deduped int64
	for _, w := range workers {
		deduped += w.Stats().Deduped
	}
	t.Logf("chaos: %d drops, %d retransmits, %d deduped",
		inj.Stats().ConnDrops, c.Stats().Retransmits, deduped)
}

// A half-open partition — the peer reads nothing but the socket stays
// writable — is invisible to writes; only the heartbeat deadline can
// catch it. The partitioned worker must be declared dead and its
// buckets promoted with no acked loss.
func TestHalfOpenPartitionDetected(t *testing.T) {
	c, workers := startCluster(t, 3, Config{})
	want := feed(t, c, 1000, 31)
	if err := c.Barrier(10 * time.Second); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	// Partition worker 0: every subsequent read on its connections
	// hangs, while writes keep succeeding.
	workers[0].SetChaos(chaos.New(chaos.Config{Seed: 1, HalfOpen: 1}))
	// Sever its current connection so the coordinator reconnects into
	// the faulty wrapper.
	workers[0].mu.Lock()
	for conn := range workers[0].conns {
		conn.Close()
	}
	workers[0].mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("half-open partition never detected")
		}
		time.Sleep(time.Millisecond)
	}
	want2 := feed(t, c, 1000, 31)
	want2.Merge(want)
	assertParity(t, c, want2)
	if s := c.Stats(); s.BucketsLost != 0 {
		t.Fatalf("half-open failover lost %d buckets", s.BucketsLost)
	}
}

// MoveBucket is the load-balancing path: online handoff of a bucket's
// primary role mid-stream, with parity preserved.
func TestMoveBucketOnline(t *testing.T) {
	c, _ := startCluster(t, 3, Config{})
	want := feed(t, c, 2000, 53)
	c.mu.Lock()
	src := c.buckets[0].primary
	c.mu.Unlock()
	dst := (src + 1) % 3
	if err := c.MoveBucket(0, dst); err != nil {
		t.Fatalf("move: %v", err)
	}
	c.mu.Lock()
	got := c.buckets[0].primary
	c.mu.Unlock()
	if got != dst {
		t.Fatalf("bucket 0 primary = %d, want %d", got, dst)
	}
	// Moving a bucket onto the node that already runs it is a no-op.
	if err := c.MoveBucket(0, dst); err != nil {
		t.Fatalf("self-move: %v", err)
	}
	if c.Stats().Moves != 1 {
		t.Fatalf("moves = %d, want 1", c.Stats().Moves)
	}
	want2 := feed(t, c, 2000, 53)
	want2.Merge(want)
	assertParity(t, c, want2)
}

// Out-of-order arrival (concurrent routers, retransmit racing the
// original) must dedup exactly: the floor only advances across a
// contiguous prefix, and every sequence folds exactly once.
func TestWorkerExactDedupOutOfOrder(t *testing.T) {
	w := NewWorker()
	e := []Entry{{Key: "k", Val: 1}}
	if got := w.applyData(0, 3, e); got != 0 {
		t.Fatalf("floor after gap arrival = %d, want 0", got)
	}
	// Retransmit of seq 3 while the gap is open: must not refold.
	if got := w.applyData(0, 3, e); got != 0 {
		t.Fatalf("floor after duplicate = %d, want 0", got)
	}
	if got := w.applyData(0, 1, e); got != 1 {
		t.Fatalf("floor after seq 1 = %d, want 1", got)
	}
	// Seq 2 closes the gap: floor jumps over the already-applied 3.
	if got := w.applyData(0, 2, e); got != 3 {
		t.Fatalf("floor after seq 2 = %d, want 3", got)
	}
	// A late duplicate of the whole prefix is skipped wholesale.
	if got := w.applyData(0, 1, []Entry{{Key: "k", Val: 1}, {Key: "k", Val: 1}, {Key: "k", Val: 1}}); got != 3 {
		t.Fatalf("floor after replay = %d, want 3", got)
	}
	st, floor := w.fetchState(0, false)
	if floor != 3 || st["k"] == nil || st["k"].Count != 3 || st["k"].Sum != 3 {
		t.Fatalf("state = %+v floor=%d, want count=3 sum=3 floor=3", st["k"], floor)
	}
	if s := w.Stats(); s.Processed != 3 || s.Deduped != 4 {
		t.Fatalf("processed=%d deduped=%d, want 3/4", s.Processed, s.Deduped)
	}
}

// roundTripDataFrame and roundTripStateFrame build the frames
// TestProtocolRoundTrip checks; the fuzz targets seed from the same ones.
func roundTripDataFrame() ([]Entry, []byte) {
	entries := []Entry{{Key: "alpha", Val: 1.5}, {Key: "", Val: -2}, {Key: "β", Val: 0}}
	return entries, appendData(nil, 7, 41, entries)
}

func roundTripStateFrame() []byte {
	st := BucketState{}
	st.Fold("x", 2)
	return appendState(nil, mState, 3, 9, st)
}

// The protocol codec must round-trip every message the exchange uses.
func TestProtocolRoundTrip(t *testing.T) {
	entries, frame := roundTripDataFrame()
	if frame[0] != mData {
		t.Fatalf("type = %d", frame[0])
	}
	d := &decoder{buf: frame[1:]}
	bucket, base, got := decodeData(d)
	if d.err != nil {
		t.Fatalf("decode: %v", d.err)
	}
	if bucket != 7 || base != 41 || len(got) != len(entries) {
		t.Fatalf("decoded bucket=%d base=%d n=%d", bucket, base, len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
	// Truncation at any cut must error, never panic or misread.
	for cut := 1; cut < len(frame); cut++ {
		d := &decoder{buf: frame[1:cut]}
		decodeData(d)
		if cut < len(frame) && d.err == nil {
			// The cut may fall exactly on a field boundary past the
			// last entry only at full length; anything shorter errors.
			t.Fatalf("truncated frame (cut %d) decoded cleanly", cut)
		}
	}
	sf := roundTripStateFrame()
	sd := &decoder{buf: sf[1:]}
	if b := sd.uvarint(); b != 3 {
		t.Fatalf("state bucket = %d", b)
	}
	if u := sd.varint(); u != 9 {
		t.Fatalf("state upTo = %d", u)
	}
	rt := sd.state()
	if sd.err != nil || rt["x"] == nil || rt["x"].Count != 1 || rt["x"].Sum != 2 {
		t.Fatalf("state round-trip: %+v err=%v", rt, sd.err)
	}
}
