package cluster

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/ingress"
)

// Worker runs the partitioned consumer state of one cluster node: a set
// of BucketState partitions behind the framed TCP exchange. It is
// role-agnostic about replication — a worker does not know whether it
// holds a bucket as primary or secondary; the coordinator owns that
// map. All a worker guarantees is the dedup contract: a sequence is
// folded exactly once — arrivals at or below the bucket's contiguous
// applied floor, or already present in its above-floor applied set, are
// skipped (but still acked), so retransmits and out-of-order delivery
// never double-count.
//
// Membership is worker-initiated: StartRegister dials the coordinator's
// registry address under an ingress.Supervisor (exponential backoff +
// jitter), sends a JOIN hello, and re-registers whenever the admitted
// exchange connection drops — so a worker started before its
// coordinator, or surviving a coordinator restart, converges instead of
// dying. Coordinator epochs fence staleness: the worker remembers the
// highest epoch it has been greeted with, refuses exchange connections
// from anything older, and on an epoch bump seals each bucket's dedup
// floor past its above-floor set (a new epoch is a new
// sequence-assignment authority; the old coordinator's unacked gaps
// will never be filled).
type Worker struct {
	// Logf receives node lifecycle events (default log.Printf).
	Logf func(format string, args ...any)

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	mu        sync.Mutex
	chaos     *chaos.Injector
	conns     map[net.Conn]struct{}
	helloed   map[net.Conn]int64 // exchange conns past hello → coordinator epoch
	id        int                // assigned by the coordinator's hello
	maxEpoch  int64              // highest coordinator epoch ever seen (fence floor)
	buckets   map[int]BucketState
	applied   map[int]int64          // per-bucket contiguous applied floor
	above     map[int]map[int64]bool // applied sequences above the floor (out-of-order arrivals)
	processed int64                  // entries folded (post-dedup)
	deduped   int64                  // entries skipped as already applied
	admits    int64                  // successful registry admissions
	reg       *ingress.Supervisor
}

// NewWorker builds an idle worker; Listen starts serving.
func NewWorker() *Worker {
	return &Worker{
		conns:   map[net.Conn]struct{}{},
		helloed: map[net.Conn]int64{},
		buckets: map[int]BucketState{},
		applied: map[int]int64{},
		above:   map[int]map[int64]bool{},
	}
}

// SetChaos installs (or clears) seeded connection-level fault
// injection — drops, half-open partitions, delayed acks — on every
// exchange connection accepted from now on: the deterministic injector
// the cluster tests use instead of ad-hoc sleeps.
func (w *Worker) SetChaos(in *chaos.Injector) {
	w.mu.Lock()
	w.chaos = in
	w.mu.Unlock()
}

func (w *Worker) chaosInjector() *chaos.Injector {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chaos
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Listen binds the exchange port (use ":0" in tests) and serves until
// Close; returns the bound address.
func (w *Worker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	w.ln = ln
	w.wg.Add(1)
	go w.acceptLoop()
	return ln.Addr().String(), nil
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		wrapped := chaos.WrapConn(conn, w.chaosInjector())
		w.mu.Lock()
		if w.closed.Load() {
			w.mu.Unlock()
			wrapped.Close()
			return
		}
		w.conns[wrapped] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer func() {
				w.mu.Lock()
				delete(w.conns, wrapped)
				delete(w.helloed, wrapped)
				w.mu.Unlock()
			}()
			w.serve(wrapped)
		}()
	}
}

// ackBatcher coalesces per-bucket acks on one exchange connection: data
// frames mark buckets dirty, and a flusher paced by the coordinator's
// heartbeat sends one mAckBatch frame carrying every dirty bucket's
// current floor. Pings flush immediately so barrier latency stays at
// the probe cadence, not the flush cadence.
type ackBatcher struct {
	w     *Worker
	wr    *wire
	mu    sync.Mutex
	dirty map[int]bool
	stop  chan struct{}
}

func (w *Worker) newAckBatcher(wr *wire, interval time.Duration) *ackBatcher {
	b := &ackBatcher{w: w, wr: wr, dirty: map[int]bool{}, stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-t.C:
				b.flush()
			}
		}
	}()
	return b
}

func (b *ackBatcher) mark(bucket int) {
	b.mu.Lock()
	b.dirty[bucket] = true
	b.mu.Unlock()
}

// flush sends the coalesced floors for every dirty bucket. Floors are
// read at flush time, after the marking applies completed, so the frame
// always carries each bucket's latest contiguous floor — the value the
// coordinator's release math needs; intermediate floors are skipped,
// which is exactly the coalescing win.
func (b *ackBatcher) flush() {
	b.mu.Lock()
	if len(b.dirty) == 0 {
		b.mu.Unlock()
		return
	}
	buckets := make([]int, 0, len(b.dirty))
	for bk := range b.dirty {
		buckets = append(buckets, bk)
	}
	b.dirty = map[int]bool{}
	b.mu.Unlock()

	floors := make([]int64, len(buckets))
	b.w.mu.Lock()
	for i, bk := range buckets {
		floors[i] = b.w.applied[bk]
	}
	b.w.mu.Unlock()
	// A delayed ack is the classic ambiguous-failure window: the
	// coordinator may retransmit entries the worker already applied; the
	// dedup floor is what keeps the retry harmless. Teardown interrupts
	// the delay — a closing worker must not linger in injected latency.
	if delay := b.w.chaosInjector().DelayAck(); delay > 0 {
		select {
		case <-b.stop:
		case <-time.After(delay):
		}
	}
	if err := b.wr.writeFrame(appendAckBatch(nil, buckets, floors)); err != nil {
		b.wr.close() // wake the serve loop; reconnect retransmits
	}
}

func (b *ackBatcher) close() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
}

// serve handles one coordinator connection. A connection failure is not
// fatal to the worker: state stays, and a reconnecting coordinator
// resumes against the same applied floors.
func (w *Worker) serve(conn net.Conn) {
	wr := newWire(conn)
	defer wr.close()
	var batcher *ackBatcher
	defer func() {
		if batcher != nil {
			batcher.close()
			batcher.flush() // best effort: don't strand floors on teardown
		}
	}()
	var out []byte // reused reply buffer
	for {
		payload, err := wr.readFrame()
		if err != nil {
			return
		}
		d := &decoder{buf: payload[1:]}
		out = out[:0]
		switch payload[0] {
		case mHello:
			id := int(d.uvarint())
			epoch := d.varint()
			hbMs := d.varint()
			if d.err != nil {
				return
			}
			floors, ok := w.greet(conn, id, epoch)
			if !ok {
				w.logf("cluster worker %d: fenced stale coordinator (epoch %d < %d)", id, epoch, w.MaxEpoch())
				return
			}
			hb := time.Duration(hbMs) * time.Millisecond
			if hb <= 0 {
				hb = 100 * time.Millisecond
			}
			if batcher != nil {
				batcher.close()
			}
			batcher = w.newAckBatcher(wr, hb/4)
			w.logf("cluster worker %d: coordinator connected (epoch %d)", id, epoch)
			// First frame back: every floor this worker holds, so a
			// recovering coordinator reconciles against worker truth
			// before routing or moving anything.
			out = appendFloors(out, floors)
		case mData:
			bucket, baseSeq, entries := decodeData(d)
			if d.err != nil {
				return
			}
			w.applyData(bucket, baseSeq, entries)
			if batcher != nil {
				batcher.mark(bucket)
				continue
			}
			// Data before hello (not a path the coordinator takes, but
			// the protocol stays safe): ack inline.
			if delay := w.chaosInjector().DelayAck(); delay > 0 {
				time.Sleep(delay)
			}
			w.mu.Lock()
			floor := w.applied[bucket]
			w.mu.Unlock()
			out = appendAck(out, bucket, floor)
		case mPing:
			if batcher != nil {
				batcher.flush()
			}
			w.mu.Lock()
			processed := w.processed
			w.mu.Unlock()
			out = appendPong(out, processed)
		case mFetch:
			bucket := int(d.uvarint())
			drop := d.byteVal() == 1
			if d.err != nil {
				return
			}
			st, upTo := w.fetchState(bucket, drop)
			out = appendState(out, mState, bucket, upTo, st)
		case mInstall:
			bucket := int(d.uvarint())
			upTo := d.varint()
			st := d.state()
			if d.err != nil {
				return
			}
			w.installState(bucket, upTo, st)
			out = appendInstalled(out, bucket)
		case mCollect:
			n := d.count(1)
			if d.err != nil {
				return
			}
			merged := BucketState{}
			w.mu.Lock()
			for i := uint64(0); i < n; i++ {
				if st := w.buckets[int(d.uvarint())]; st != nil {
					merged.Merge(st)
				}
			}
			w.mu.Unlock()
			if d.err != nil {
				return
			}
			out = appendState(out, mCollectReply, 0, 0, merged)
		default:
			w.logf("cluster worker: unknown message type %d", payload[0])
			return
		}
		if err := wr.writeFrame(out); err != nil {
			return
		}
	}
}

// greet applies a coordinator hello's epoch fencing and returns the
// floors to report. A hello older than the highest epoch seen is
// refused (ok=false → sever the connection: a stale coordinator must
// never route or move buckets). A hello from a *newer* epoch seals
// every bucket: the floor jumps past the above-floor applied set and
// the set clears, because sequence numbers from the old epoch's
// authority will never be completed — the new coordinator starts its
// own assignment above the floors the worker reports here. Connections
// still open from older epochs are severed.
func (w *Worker) greet(conn net.Conn, id int, epoch int64) (map[int]int64, bool) {
	w.mu.Lock()
	if epoch < w.maxEpoch {
		w.mu.Unlock()
		return nil, false
	}
	if epoch > w.maxEpoch {
		sealed := 0
		for b, above := range w.above {
			floor := w.applied[b]
			for seq := range above {
				if seq > floor {
					floor = seq
				}
			}
			if floor != w.applied[b] {
				sealed++
			}
			w.applied[b] = floor
			delete(w.above, b)
		}
		var stale []net.Conn
		for c, e := range w.helloed {
			if e < epoch && c != conn {
				stale = append(stale, c)
			}
		}
		w.maxEpoch = epoch
		if sealed > 0 || len(stale) > 0 {
			w.logf("cluster worker %d: epoch %d sealed %d bucket floors, severing %d stale conns", id, epoch, sealed, len(stale))
		}
		w.mu.Unlock()
		for _, c := range stale {
			c.Close()
		}
		w.mu.Lock()
	}
	w.id = id
	w.helloed[conn] = epoch
	floors := make(map[int]int64, len(w.applied))
	for b, f := range w.applied {
		floors[b] = f
	}
	w.mu.Unlock()
	return floors, true
}

// MaxEpoch returns the highest coordinator epoch this worker has seen.
func (w *Worker) MaxEpoch() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.maxEpoch
}

// connectedAtEpoch reports whether a live exchange connection from a
// coordinator at least as new as epoch exists.
func (w *Worker) connectedAtEpoch(epoch int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, e := range w.helloed {
		if e >= epoch {
			return true
		}
	}
	return false
}

// registerDialTimeout bounds one registry dial; admitWait bounds how
// long an admitted worker waits for the coordinator to dial back before
// the attempt is retried under backoff.
const (
	registerDialTimeout = 2 * time.Second
	admitWait           = 10 * time.Second
)

// StartRegister launches the supervised registration loop: dial the
// coordinator's registry address, send JOIN (name, exchange address,
// max epoch seen), wait for ADMIT and the coordinator's exchange
// dial-back, then watch the connection; if it drops, the run returns an
// error and the supervisor re-registers with exponential backoff +
// jitter. Safe to call before the coordinator exists — that is the
// point. Returns the supervisor (exposed for health introspection);
// Close stops it.
func (w *Worker) StartRegister(coordAddr, name string, b ingress.Backoff) *ingress.Supervisor {
	run := func(stop <-chan struct{}) error {
		return w.registerOnce(coordAddr, name, stop)
	}
	sup := ingress.NewSupervisor("cluster-join:"+name, run, b)
	w.mu.Lock()
	w.reg = sup
	w.mu.Unlock()
	sup.Start()
	return sup
}

func (w *Worker) registerOnce(coordAddr, name string, stop <-chan struct{}) error {
	if w.closed.Load() {
		return nil
	}
	conn, err := net.DialTimeout("tcp", coordAddr, registerDialTimeout)
	if err != nil {
		return fmt.Errorf("registry dial %s: %w", coordAddr, err)
	}
	conn.SetDeadline(time.Now().Add(registerDialTimeout + 3*time.Second))
	wr := newWire(conn)
	if err := wr.writeFrame(appendJoin(nil, name, w.Addr(), w.MaxEpoch())); err != nil {
		conn.Close()
		return fmt.Errorf("registry join: %w", err)
	}
	payload, err := wr.readFrame()
	conn.Close()
	if err != nil {
		return fmt.Errorf("registry admit: %w", err)
	}
	if len(payload) == 0 || payload[0] != mAdmit {
		return fmt.Errorf("registry admit: unexpected reply %d", payload[0])
	}
	d := &decoder{buf: payload[1:]}
	id := int(d.uvarint())
	epoch := d.varint()
	if d.err != nil {
		return fmt.Errorf("registry admit: %w", d.err)
	}
	w.mu.Lock()
	w.admits++
	w.mu.Unlock()
	w.logf("cluster worker: admitted as node %d (epoch %d) by %s", id, epoch, coordAddr)

	// Wait for the coordinator's exchange dial-back, then hold until the
	// connection is lost — at which point re-register under backoff.
	deadline := time.Now().Add(admitWait)
	for !w.connectedAtEpoch(epoch) {
		if w.closed.Load() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("admitted by %s but no exchange dial-back", coordAddr)
		}
		select {
		case <-stop:
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
	for w.connectedAtEpoch(epoch) {
		if w.closed.Load() {
			return nil
		}
		select {
		case <-stop:
			return nil
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("exchange connection to coordinator lost")
}

// applyData folds an entry batch into its bucket exactly once per
// sequence and returns the new contiguous applied floor — the only
// value it is safe to acknowledge. Sequences may arrive out of order
// (concurrent routers, retransmit racing a delayed original), so dedup
// is exact: floor plus the set of applied sequences above it, with the
// floor advanced only across a contiguous prefix.
func (w *Worker) applyData(bucket int, baseSeq int64, entries []Entry) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.buckets[bucket]
	if st == nil {
		st = BucketState{}
		w.buckets[bucket] = st
	}
	floor := w.applied[bucket]
	above := w.above[bucket]
	for i, e := range entries {
		seq := baseSeq + int64(i)
		if seq <= floor || above[seq] {
			w.deduped++
			continue
		}
		st.Fold(e.Key, e.Val)
		w.processed++
		if above == nil {
			above = map[int64]bool{}
			w.above[bucket] = above
		}
		above[seq] = true
	}
	for above[floor+1] {
		delete(above, floor+1)
		floor++
	}
	w.applied[bucket] = floor
	return floor
}

// fetchState snapshots (and with drop, removes) one bucket's state.
func (w *Worker) fetchState(bucket int, drop bool) (BucketState, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.buckets[bucket]
	upTo := w.applied[bucket]
	if st == nil {
		st = BucketState{}
	}
	if drop {
		delete(w.buckets, bucket)
		delete(w.applied, bucket)
		delete(w.above, bucket)
		return st, upTo
	}
	return st.Clone(), upTo
}

// installState replaces a bucket's state and dedup floor (failover
// catch-up and handoff both land here; the moved state supersedes any
// replica the node already held).
func (w *Worker) installState(bucket int, upTo int64, st BucketState) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buckets[bucket] = st
	w.applied[bucket] = upTo
	delete(w.above, bucket) // the installed floor supersedes any gap set
}

// WorkerStats is a worker's observable state (tests, logs, telemetry).
type WorkerStats struct {
	ID        int
	Buckets   int
	Processed int64
	Deduped   int64
	Epoch     int64
	Admits    int64
}

// Stats snapshots the worker.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStats{
		ID:        w.id,
		Buckets:   len(w.buckets),
		Processed: w.processed,
		Deduped:   w.deduped,
		Epoch:     w.maxEpoch,
		Admits:    w.admits,
	}
}

// Addr returns the bound exchange address ("" before Listen).
func (w *Worker) Addr() string {
	if w.ln == nil {
		return ""
	}
	return w.ln.Addr().String()
}

// Close stops the registration loop and the listener and severs live
// connections. State is kept: a closed worker models a partitioned
// node, not a wiped one.
func (w *Worker) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	w.mu.Lock()
	reg := w.reg
	w.mu.Unlock()
	if reg != nil {
		reg.Stop()
	}
	var err error
	if w.ln != nil {
		err = w.ln.Close()
	}
	// Serve loops block in readFrame; closing the listener does not
	// unblock them, so sever the live connections too.
	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	return err
}

// String identifies the worker in logs.
func (w *Worker) String() string {
	return fmt.Sprintf("worker[%d]@%s", w.id, w.Addr())
}
