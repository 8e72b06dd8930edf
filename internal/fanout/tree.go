package fanout

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"

	"telegraphcq/internal/egress"
	"telegraphcq/internal/fjord"
)

// ErrClosed reports an Attach against a closed (or failed) tree.
var ErrClosed = errors.New("fanout: tree closed")

// ErrFull reports that the tree is at its structural capacity
// (Degree² relays·leaves × LeafCap subscribers).
var ErrFull = errors.New("fanout: tree at subscriber capacity")

// Options configures one query's fan-out tree. The zero value gets the
// defaults noted per field.
type Options struct {
	// Query is the query id (labels telemetry rows).
	Query int
	// Prefix is the per-row wire preamble frames carry (the server uses
	// "row <id> ").
	Prefix string
	// Degree bounds children per relay stage (default 64).
	Degree int
	// LeafCap bounds subscribers per leaf stage (default 512). With the
	// defaults the tree holds Degree·Degree·LeafCap ≈ 2M subscribers.
	LeafCap int
	// StageQueue is the frame ring capacity between stages (default 256).
	StageQueue int
	// SubQueue is the default subscriber frame ring capacity (default 64).
	SubQueue int
	// Spool, when set, backs cohort replay: late joiners catch up from
	// the query's retained results instead of the hot path.
	Spool *egress.Spool
}

func (o *Options) defaults() {
	if o.Degree <= 0 {
		o.Degree = 64
	}
	if o.LeafCap <= 0 {
		o.LeafCap = 512
	}
	if o.StageQueue <= 0 {
		o.StageQueue = 256
	}
	if o.SubQueue <= 0 {
		o.SubQueue = 64
	}
}

// Tree is one query's fan-out: the producing EO publishes a batch's
// text once; the encoder copies it into one shared frame; relay stages
// spread the frame to leaves; each leaf offers it to its subscribers
// under their QoS policy. The structure is root → relays → leaves, all
// connected by SPSC frame rings (each ring has exactly one producing
// and one consuming stage goroutine).
//
// Tree implements egress.Publisher.
type Tree struct {
	opts    Options
	enc     *Encoder
	root    *stage
	rowText []byte // Publish's encode scratch

	mu      sync.Mutex
	relays  []*stage
	leaves  []*stage
	stages  []*stage // root + relays + leaves (Close/Pending iterate it)
	subs    map[int64]*Subscriber
	cohorts map[string]*Cohort
	closed  bool

	nextSub       atomic.Int64
	nsubs         atomic.Int64
	frameSeq      atomic.Int64
	published     atomic.Int64 // frames offered to the root ring
	publishedRows atomic.Int64
	skippedIdle   atomic.Int64 // publishes skipped because no one listens
	rootShed      atomic.Int64 // frames refused by a closed root ring
	failed        atomic.Value // error
}

// NewTree builds an empty fan-out tree.
func NewTree(opts Options) *Tree {
	opts.defaults()
	t := &Tree{
		opts:    opts,
		enc:     NewEncoder(opts.Prefix),
		subs:    map[int64]*Subscriber{},
		cohorts: map[string]*Cohort{},
	}
	t.root = t.newStage(false)
	return t
}

// Encoder exposes the tree's encoder (tests and tcqload read its
// encode-once counters).
func (t *Tree) Encoder() *Encoder { return t.enc }

// Subscribers returns the current live subscriber count.
func (t *Tree) Subscribers() int64 { return t.nsubs.Load() }

// ------------------------------------------------------------- stages

// stage is one relay node: a goroutine draining an SPSC frame ring and
// re-distributing each frame to its children (inner stages) or offering
// it to its subscribers (leaf stages). Fan-out membership is
// copy-on-write: the per-frame read is one atomic pointer load, and
// attach/prune rebuild the slice under mu.
type stage struct {
	t    *Tree
	in   *fjord.SPSC[*Frame]
	done chan struct{}
	leaf bool

	mu       sync.Mutex
	children atomic.Pointer[[]*stage]
	subs     atomic.Pointer[[]*Subscriber]
	nsubs    atomic.Int32 // leaf occupancy (attach capacity check)
	kids     int          // relay occupancy (guarded by Tree.mu)
}

func (t *Tree) newStage(leaf bool) *stage {
	s := &stage{
		t:    t,
		in:   fjord.NewSPSC[*Frame](t.opts.StageQueue),
		done: make(chan struct{}),
		leaf: leaf,
	}
	s.children.Store(&[]*stage{})
	s.subs.Store(&[]*Subscriber{})
	t.stages = append(t.stages, s)
	go s.run()
	return s
}

func (s *stage) run() {
	defer close(s.done)
	for {
		f, err := s.in.Dequeue()
		if err != nil {
			break
		}
		if s.leaf {
			s.deliverSubs(f)
		} else {
			s.deliverChildren(f)
		}
	}
	// Cascade shutdown: this stage's ring is closed and drained, so
	// close the downstream rings; children drain theirs in turn.
	if s.leaf {
		for _, sub := range *s.subs.Load() {
			sub.ring.Close()
		}
	} else {
		for _, c := range *s.children.Load() {
			c.in.Close()
		}
	}
}

// deliverChildren forwards one frame to every child stage. Stage-to-
// stage rings are lossless: the enqueue blocks (bounded by ring drain,
// not by client speed — loss policy lives only at the subscriber edge).
func (s *stage) deliverChildren(f *Frame) {
	for _, c := range *s.children.Load() {
		f.Retain()
		if c.in.Enqueue(f) != nil {
			f.Release() // child closed mid-cascade
		}
	}
	f.Release() // the reference our producer transferred
}

// deliverSubs offers one frame to every live subscriber under its QoS
// policy, then prunes subscribers that closed.
func (s *stage) deliverSubs(f *Frame) {
	pruned := false
	for _, sub := range *s.subs.Load() {
		if sub.closed.Load() {
			pruned = true
			continue
		}
		sub.offer(f)
	}
	f.Release()
	if pruned {
		s.prune()
	}
}

func (s *stage) addSub(sub *Subscriber) {
	s.mu.Lock()
	old := *s.subs.Load()
	ns := make([]*Subscriber, 0, len(old)+1)
	ns = append(append(ns, old...), sub)
	s.subs.Store(&ns)
	s.nsubs.Add(1)
	s.mu.Unlock()
}

// prune rebuilds the leaf's snapshot without closed subscribers. It
// runs on the leaf goroutine — the only goroutine that offers frames —
// so a pruned subscriber can never receive another offer.
func (s *stage) prune() {
	s.mu.Lock()
	old := *s.subs.Load()
	keep := make([]*Subscriber, 0, len(old))
	var gone []*Subscriber
	for _, sub := range old {
		if sub.closed.Load() {
			gone = append(gone, sub)
		} else {
			keep = append(keep, sub)
		}
	}
	s.subs.Store(&keep)
	s.nsubs.Store(int32(len(keep)))
	s.mu.Unlock()
	for _, sub := range gone {
		sub.retireFrom(s.t)
	}
}

func (s *stage) addChild(c *stage) {
	s.mu.Lock()
	old := *s.children.Load()
	ns := make([]*stage, 0, len(old)+1)
	ns = append(append(ns, old...), c)
	s.children.Store(&ns)
	s.mu.Unlock()
}

// ------------------------------------------------------------ publish

// PublishText implements egress.Publisher: copy the batch's delivered
// text into one shared frame and hand it to the root ring. The producing
// EO pays one copy and one ring publish per batch — O(1) in the
// subscriber count; the rows were rendered once, by the Hub. With no
// live subscribers the publish is skipped entirely: the query's spool
// already logs the text for late joiners, whose replay window is read
// after they attach.
func (t *Tree) PublishText(text []byte, rows int, end int64) {
	if rows == 0 {
		return
	}
	if t.nsubs.Load() == 0 {
		t.skippedIdle.Add(1)
		return
	}
	t.published.Add(1)
	t.publishedRows.Add(int64(rows))
	f := t.enc.frame(text, rows, end, t.frameSeq.Add(1), false)
	if t.root.in.Enqueue(f) != nil {
		t.rootShed.Add(1)
		f.Release()
	}
}

// Publish is PublishText for a caller holding rows rather than their
// delivered text (the benchmark ladder's fanout.publish rung): it
// renders them with egress.AppendLines into the tree's scratch. Calls
// must be serialized, like the Hub's deliveries.
func (t *Tree) Publish(rows egress.Rows, end int64) {
	t.rowText = egress.AppendLines(t.rowText[:0], rows)
	t.PublishText(t.rowText, len(rows), end)
}

// Fail implements egress.Publisher: record the terminal error, then
// tear down. Subscribers drain their buffered frames, see a closed
// ring, and read the error from Err.
func (t *Tree) Fail(err error) {
	t.failed.Store(err)
	t.Close()
}

// Close implements egress.Publisher: close the root ring and wait for
// the cascade (every stage drains its ring, then closes its
// children's). Idempotent; every call waits for the full cascade.
func (t *Tree) Close() {
	t.mu.Lock()
	first := !t.closed
	t.closed = true
	stages := append([]*stage(nil), t.stages...)
	t.mu.Unlock()
	if first {
		t.root.in.Close()
	}
	for _, s := range stages {
		<-s.done
	}
}

// Err returns the tree's terminal error (nil unless Fail ran).
func (t *Tree) Err() error {
	if v := t.failed.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Pending implements egress.Publisher: frames still buffered in stage
// rings plus frames queued at live subscribers (graceful drain polls
// it toward zero).
func (t *Tree) Pending() int {
	t.mu.Lock()
	stages := append([]*stage(nil), t.stages...)
	subs := make([]*Subscriber, 0, len(t.subs))
	for _, sub := range t.subs {
		subs = append(subs, sub)
	}
	t.mu.Unlock()
	n := 0
	for _, s := range stages {
		n += s.in.Len()
	}
	for _, sub := range subs {
		if !sub.closed.Load() {
			n += sub.ring.Len()
		}
	}
	return n
}

// ------------------------------------------------------------- attach

// SubOptions configures one subscriber.
type SubOptions struct {
	// QoS is the subscriber's overflow policy (zero value: drop-newest).
	QoS fjord.QoS
	// Queue overrides the frame ring capacity (0 → Options.SubQueue).
	Queue int
	// Cohort names a shared replay cursor: members catch up from the
	// query spool starting at the cohort's cursor (never re-replaying
	// what the cohort already consumed) and advance it as they consume.
	Cohort string
	// Replay forces catch-up from the spool base even without a cohort.
	Replay bool
}

// Attach adds a subscriber. The tree grows leaves and relays as needed;
// the hot delivery path never observes the growth (membership is
// copy-on-write).
func (t *Tree) Attach(o SubOptions) (*Subscriber, error) {
	if o.Queue <= 0 {
		o.Queue = t.opts.SubQueue
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	leaf, err := t.leafLocked()
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	sub := &Subscriber{
		ID:   t.nextSub.Add(1),
		t:    t,
		ring: fjord.NewPush[*Frame](o.Queue),
		qos:  o.QoS,
		opts: o,
	}
	if o.QoS.Policy == fjord.Sample {
		sub.rng = rand.New(rand.NewSource(sub.ID))
	}
	var coh *Cohort
	if o.Cohort != "" {
		coh = t.cohorts[o.Cohort]
		if coh == nil {
			coh = &Cohort{Name: o.Cohort}
			t.cohorts[o.Cohort] = coh
		}
		sub.cohort = coh
	}
	t.subs[sub.ID] = sub
	t.nsubs.Add(1)
	t.mu.Unlock()

	// Live frames start flowing into the ring the moment the leaf
	// snapshot includes the subscriber; the replay window is read
	// *after* that, so every row is either replayed (appended to the
	// spool before the window was read — spool append happens before
	// frame publish) or delivered live. Frames covering both are
	// deduplicated at consume time by their spool end offset.
	leaf.addSub(sub)
	if sp := t.opts.Spool; sp != nil && (coh != nil || o.Replay) {
		end := sp.End()
		from := sp.Base()
		if coh != nil {
			if cur := coh.Cursor(); cur > from {
				from = cur
			}
		}
		if from > end {
			from = end
		}
		sub.replayFrom, sub.replayEnd = from, end
		sub.skipBelow = end
	}
	return sub, nil
}

// leafLocked returns a leaf with a free subscriber slot, growing the
// tree when all are full. Caller holds t.mu.
func (t *Tree) leafLocked() (*stage, error) {
	for i := len(t.leaves) - 1; i >= 0; i-- {
		if int(t.leaves[i].nsubs.Load()) < t.opts.LeafCap {
			return t.leaves[i], nil
		}
	}
	// All leaves full: grow one under a relay with room.
	var parent *stage
	for i := len(t.relays) - 1; i >= 0; i-- {
		if t.relays[i].kids < t.opts.Degree {
			parent = t.relays[i]
			break
		}
	}
	if parent == nil {
		if len(t.relays) >= t.opts.Degree {
			return nil, ErrFull
		}
		parent = t.newStage(false)
		t.relays = append(t.relays, parent)
		t.root.addChild(parent)
	}
	leaf := t.newStage(true)
	t.leaves = append(t.leaves, leaf)
	parent.kids++
	parent.addChild(leaf)
	return leaf, nil
}

// ------------------------------------------------------------- cohort

// Cohort is a shared monotone cursor into the query spool: the furthest
// offset any member has consumed. A reconnecting member resumes replay
// from it instead of the spool base, so the cohort as a whole reads the
// retained history once (the PSoup shared-materialized-results idea).
type Cohort struct {
	Name string
	cur  atomic.Int64
}

// Cursor returns the cohort's current offset.
func (c *Cohort) Cursor() int64 { return c.cur.Load() }

// advance moves the cursor forward monotonically.
func (c *Cohort) advance(end int64) {
	for {
		v := c.cur.Load()
		if end <= v || c.cur.CompareAndSwap(v, end) {
			return
		}
	}
}

// Cohorts returns a snapshot of the tree's cohorts.
func (t *Tree) Cohorts() []*Cohort {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Cohort, 0, len(t.cohorts))
	for _, c := range t.cohorts {
		out = append(out, c)
	}
	return out
}

// -------------------------------------------------------------- stats

// TreeStats aggregates the tree's accounting for telemetry.
type TreeStats struct {
	Query         int
	Subs          int64 // live subscribers
	Stages        int64 // relay + leaf + root goroutines
	Published     int64 // frames offered to the root ring
	PublishedRows int64
	SkippedIdle   int64 // publishes skipped with no one listening
	RootShed      int64 // frames refused by a closed root ring
	LiveEncodes   int64
	ReplayEncodes int64
	Offered       int64 // per-subscriber frame offers, summed
	Shed          int64
	BlockTimeouts int64
	Consumed      int64
	Dedup         int64
	Replayed      int64
	Pending       int64
}

// Stats sums the per-subscriber books (including retired subscribers,
// which stay in the table until the tree closes so the aggregate
// reconciles exactly across churn).
func (t *Tree) Stats() TreeStats {
	t.mu.Lock()
	subs := make([]*Subscriber, 0, len(t.subs))
	for _, sub := range t.subs {
		subs = append(subs, sub)
	}
	nStages := int64(len(t.stages))
	t.mu.Unlock()
	st := TreeStats{
		Query:         t.opts.Query,
		Subs:          t.nsubs.Load(),
		Stages:        nStages,
		Published:     t.published.Load(),
		PublishedRows: t.publishedRows.Load(),
		SkippedIdle:   t.skippedIdle.Load(),
		RootShed:      t.rootShed.Load(),
		LiveEncodes:   t.enc.LiveEncodes(),
		ReplayEncodes: t.enc.ReplayEncodes(),
	}
	for _, sub := range subs {
		s := sub.Stats()
		st.Offered += s.Offered
		st.Shed += s.Shed
		st.BlockTimeouts += s.BlockTimeouts
		st.Consumed += s.Consumed
		st.Dedup += s.Dedup
		st.Replayed += s.Replayed
		st.Pending += s.Pending
	}
	return st
}
