package fanout

import (
	"bytes"
	"math/rand"
	"sync/atomic"

	"telegraphcq/internal/fjord"
)

// replayBatch bounds rows per replay frame (the consumer-side catch-up
// fetch granularity).
const replayBatch = 256

// Subscriber is one client's view of a query's fan-out: a bounded frame
// ring the leaf stage offers shared frames into under the subscriber's
// QoS policy, plus a consumer-driven replay cursor for cohort catch-up.
//
// The ring is a mutex queue, not SPSC, deliberately: drop-oldest
// eviction dequeues from the producer side and Close drains
// concurrently with the consumer — both violate the SPSC contract.
//
// Accounting invariant (the books QoS tests reconcile): every frame the
// leaf offers is eventually counted exactly once as consumed, dedup, or
// shed; at quiescence Offered == Consumed + Dedup + Shed.
type Subscriber struct {
	ID   int64
	t    *Tree
	ring fjord.Queue[*Frame]
	qos  fjord.QoS
	opts SubOptions
	rng  *rand.Rand // Sample policy draws (leaf goroutine only)

	cohort *Cohort

	// Consumer-side replay state (touched only by the consuming
	// goroutine): the half-open spool range still to catch up on, the
	// dedup watermark for live frames, and the fetch scratch.
	replayFrom int64
	replayEnd  int64
	skipBelow  int64
	replayBuf  []byte
	replaySeq  int64

	offered       atomic.Int64
	shed          atomic.Int64
	blockTimeouts atomic.Int64
	consumed      atomic.Int64
	dedup         atomic.Int64
	replayed      atomic.Int64

	closed  atomic.Bool
	retired atomic.Bool
}

// offer runs on the leaf goroutine: admit the frame into the ring under
// the subscriber's overflow policy, keeping the books exact. Each
// reference transfer pairs with an eventual Release.
func (sub *Subscriber) offer(f *Frame) {
	sub.offered.Add(1)
	f.Retain()
	opts := fjord.OfferOpts{QoS: sub.qos}
	if sub.rng != nil {
		opts.Rand = sub.rng.Float64
	}
	res := fjord.Offer[*Frame](sub.ring, f, opts)
	if res.DidEvict {
		res.Evicted.Release()
		sub.shed.Add(1)
	}
	if !res.Accepted {
		f.Release()
		sub.shed.Add(1)
		if res.TimedOut {
			sub.blockTimeouts.Add(1)
		}
	}
}

// retireFrom finalizes a pruned subscriber's membership accounting
// (exactly once).
func (sub *Subscriber) retireFrom(t *Tree) {
	if sub.retired.CompareAndSwap(false, true) {
		t.nsubs.Add(-1)
	}
}

// NextFrame blocks for the next frame (replay catch-up first, then live
// delivery). ok is false once the subscription is closed and drained.
// The caller owns one reference to the returned frame and must Release
// it after writing the bytes.
func (sub *Subscriber) NextFrame() (*Frame, bool) {
	for {
		if f := sub.replayNext(); f != nil {
			return f, true
		}
		f, err := sub.ring.Dequeue()
		if err != nil {
			return nil, false
		}
		if sub.admit(f) {
			return f, true
		}
	}
}

// TryNextFrame is the non-blocking NextFrame (polling consumers).
func (sub *Subscriber) TryNextFrame() (*Frame, bool) {
	for {
		if f := sub.replayNext(); f != nil {
			return f, true
		}
		f, ok := sub.ring.TryDequeue()
		if !ok {
			return nil, false
		}
		if sub.admit(f) {
			return f, true
		}
	}
}

// admit decides a dequeued live frame's fate: frames at or below the
// replay watermark were already covered by catch-up and are skipped
// (spool appends are batch-atomic, so frame end offsets align with the
// watermark — a frame is entirely above or entirely at-or-below it).
func (sub *Subscriber) admit(f *Frame) bool {
	if f.end > 0 && f.end <= sub.skipBelow {
		sub.dedup.Add(1)
		f.Release()
		return false
	}
	sub.consumed.Add(1)
	if sub.cohort != nil && f.end > 0 {
		sub.cohort.advance(f.end)
	}
	return true
}

// replayNext produces the next catch-up frame from the spool, or nil
// when caught up. Replay copies spooled text per subscriber — off the
// hot path by construction (it reads retained results, not the delivery
// stream).
func (sub *Subscriber) replayNext() *Frame {
	if sub.replayFrom >= sub.replayEnd {
		return nil
	}
	sp := sub.t.opts.Spool
	if sp == nil {
		sub.replayFrom = sub.replayEnd
		return nil
	}
	limit := replayBatch
	if span := sub.replayEnd - sub.replayFrom; span < int64(limit) {
		limit = int(span)
	}
	text, rows, next := sp.FetchInto(sub.replayBuf[:0], sub.replayFrom, limit)
	sub.replayBuf = text
	// A fetch clamped forward past aged-out rows may reach beyond the
	// window: those rows belong to live delivery. Rows aged out below it
	// are gone (the spool is bounded — that loss is by design).
	for ; next > sub.replayEnd && rows > 0; next-- {
		text = text[:bytes.LastIndexByte(text[:len(text)-1], '\n')+1]
		rows--
	}
	if next > sub.replayEnd {
		next = sub.replayEnd
	}
	sub.replayFrom = next
	if rows == 0 {
		return nil
	}
	sub.replaySeq--
	f := sub.t.enc.frame(text, rows, next, sub.replaySeq, true)
	sub.replayed.Add(1)
	if sub.cohort != nil {
		sub.cohort.advance(next)
	}
	return f
}

// Err returns the query's terminal error, if the tree failed.
func (sub *Subscriber) Err() error { return sub.t.Err() }

// Closed reports whether Close ran (or the tree shut down under us —
// then the ring is closed but this still reports false until Close).
func (sub *Subscriber) Closed() bool { return sub.closed.Load() }

// Close detaches the subscriber: no more frames are offered (the leaf
// prunes it on its next delivery), and everything still buffered is
// drained, released, and counted as shed so the books stay balanced.
// Safe to call concurrently with a consumer blocked in NextFrame (the
// ring close wakes it).
func (sub *Subscriber) Close() {
	if !sub.closed.CompareAndSwap(false, true) {
		return
	}
	sub.ring.Close()
	for {
		f, ok := sub.ring.TryDequeue()
		if !ok {
			break
		}
		f.Release()
		sub.shed.Add(1)
	}
}

// SubStats is one subscriber's accounting snapshot.
type SubStats struct {
	ID            int64
	Cohort        string
	Policy        fjord.OverflowPolicy
	Offered       int64 // frames the leaf offered
	Shed          int64 // frames lost to the overflow policy (or close)
	BlockTimeouts int64 // Block waits that expired
	Consumed      int64 // live frames handed to the consumer
	Dedup         int64 // live frames skipped as replay duplicates
	Replayed      int64 // catch-up frames produced from the spool
	Pending       int64 // frames buffered in the ring right now
	Closed        bool
}

// Stats snapshots the subscriber's books.
func (sub *Subscriber) Stats() SubStats {
	return SubStats{
		ID:            sub.ID,
		Cohort:        sub.opts.Cohort,
		Policy:        sub.qos.Policy,
		Offered:       sub.offered.Load(),
		Shed:          sub.shed.Load(),
		BlockTimeouts: sub.blockTimeouts.Load(),
		Consumed:      sub.consumed.Load(),
		Dedup:         sub.dedup.Load(),
		Replayed:      sub.replayed.Load(),
		Pending:       int64(sub.ring.Len()),
		Closed:        sub.closed.Load(),
	}
}
