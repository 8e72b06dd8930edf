// Package fanout is the subscriber fan-out subsystem between the
// per-query egress Hub and client sessions. TelegraphCQ's egress
// modules (§4.3) hand each query's results to *one* push subscription;
// scaling to the roadmap's "millions of users" means the delivery point
// must stay O(1) per batch for the producing Execution Object no matter
// how many clients listen. The package provides:
//
//   - encode-once frames: each delivered batch is rendered to wire text
//     exactly once per query, by the egress Hub; the tree copies that
//     text into one frame, adding the "row <id> " prefix per line, and
//     subscribers share refcounted frames instead of re-formatting per
//     session;
//   - a fan-out tree of relay stages, so distribution cost is spread
//     over O(log N) relay goroutines instead of the EO;
//   - subscriber cohorts with shared cursors over the query's
//     egress.Spool, so late joiners and reconnecting clients replay
//     retained results off the hot path (the PSoup modality);
//   - per-subscriber QoS reusing the Fjord overflow policies, with
//     exactly-reconciling shed accounting.
//
// Frame ownership rules: a frame is created with one reference held by
// the encoder's caller. Every enqueue into a ring transfers one
// reference (taken with Retain before the attempt; a refused enqueue
// releases it). A consumer that dequeues a frame owns one reference and
// must Release it when done with the bytes. When the count reaches
// zero the frame's buffer returns to a pool. Frame bytes are immutable
// once built — holders may read, never write.
package fanout

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/egress"
)

// Frame is one encoded result batch shared by every subscriber of a
// query. Bytes are the wire form the server session writes verbatim
// ("row <id> <csv>\n" per result row).
type Frame struct {
	buf  []byte
	rows int
	// end is the query spool's offset one past this frame's last row
	// (0 when the query has no spool). Replay dedup keys on it: a
	// subscriber that replayed the spool through offset R skips live
	// frames with end <= R.
	end  int64
	seq  int64     // per-tree monotone frame number
	born time.Time // when the frame was built (delivery-latency clock)

	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Bytes returns the encoded wire bytes. Read-only; valid until the
// holder's reference is Released.
func (f *Frame) Bytes() []byte { return f.buf }

// Rows returns how many result rows the frame encodes.
func (f *Frame) Rows() int { return f.rows }

// End returns the spool offset one past the frame's last row (0 when
// the query has no spool).
func (f *Frame) End() int64 { return f.end }

// Seq returns the frame's per-tree sequence number (replay frames use
// negative sequence numbers so they never collide with live ones).
func (f *Frame) Seq() int64 { return f.seq }

// Born returns the build timestamp (the delivery-latency epoch).
func (f *Frame) Born() time.Time { return f.born }

// Retain adds a reference (one per ring the frame is about to enter).
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops a reference; the last one returns the buffer to the
// pool. Releasing more times than retained is a bug and panics.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("fanout: Frame released more times than retained")
	}
	f.buf = f.buf[:0]
	f.rows = 0
	f.end = 0
	f.seq = 0
	f.born = time.Time{}
	framePool.Put(f)
}

// Encoder turns delivered text into frames for one query, counting how
// many frames it built — the proof of encode-once: with N subscribers
// the live count tracks the number of delivered batches, not N times
// that.
type Encoder struct {
	prefix []byte // "row <id> " — the session wire preamble per row

	liveEncodes   atomic.Int64
	liveRows      atomic.Int64
	replayEncodes atomic.Int64
	replayRows    atomic.Int64
}

// NewEncoder builds an encoder whose frames carry the given per-row
// prefix (the server uses "row <id> "; tests may use anything).
func NewEncoder(prefix string) *Encoder {
	return &Encoder{prefix: []byte(prefix)}
}

// frame copies text — rows lines, each ending in '\n' — into a pooled
// frame (one reference, owned by the caller), prefixing every line. The
// text is only read.
func (e *Encoder) frame(text []byte, rows int, end, seq int64, replay bool) *Frame {
	f := framePool.Get().(*Frame)
	f.refs.Store(1)
	f.buf = egress.AppendPrefixed(slices.Grow(f.buf[:0], len(text)+rows*len(e.prefix)), e.prefix, text)
	f.rows = rows
	f.end = end
	f.seq = seq
	f.born = time.Now()
	if replay {
		e.replayEncodes.Add(1)
		e.replayRows.Add(int64(rows))
	} else {
		e.liveEncodes.Add(1)
		e.liveRows.Add(int64(rows))
	}
	return f
}

// LiveEncodes returns how many live frames have been built (one per
// published batch).
func (e *Encoder) LiveEncodes() int64 { return e.liveEncodes.Load() }

// LiveRows returns the rows covered by live frames.
func (e *Encoder) LiveRows() int64 { return e.liveRows.Load() }

// ReplayEncodes returns cohort catch-up frames built (off hot path).
func (e *Encoder) ReplayEncodes() int64 { return e.replayEncodes.Load() }

// ReplayRows returns the rows covered by replay frames.
func (e *Encoder) ReplayRows() int64 { return e.replayRows.Load() }
