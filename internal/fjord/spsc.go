package fjord

import (
	"sync"
	"sync/atomic"
)

// SPSC is a lock-free single-producer/single-consumer ring buffer
// implementing Queue[T]. It is the fast path for Fjord edges with
// exactly one writer and one reader — an Execution Object feeding a
// client subscription, a wrapper feeding a dedicated parser — where the
// mutex queue's lock round-trip dominates the per-tuple cost. Multi-
// writer edges (fan-out, control channels) must keep using the mutex
// queue from NewPush.
//
// "Single producer" and "single consumer" mean at most one goroutine on
// each end *at a time*: handing an end to another goroutine is safe when
// the handoff itself synchronizes (channel send, WaitGroup, ack), which
// is how the executor serializes delivery during query cancellation.
//
// The layout is the classic cached-index SPSC ring: the producer owns
// tail and keeps a local view of head; the consumer owns head and keeps
// a local view of tail. Each side refreshes its cached view of the other
// index only when the cached view says the queue is full/empty, so in
// steady state an enqueue+dequeue pair touches each shared cache line
// once. Capacity is rounded up to a power of two for mask indexing.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	// Consumer-owned line: head is written only by the consumer.
	_          [64]byte
	head       atomic.Uint64
	cachedTail uint64 // consumer's last view of tail

	// Producer-owned line: tail is written only by the producer.
	_          [64]byte
	tail       atomic.Uint64
	cachedHead uint64 // producer's last view of head

	_ [64]byte

	closed atomic.Bool
	once   sync.Once
	done   chan struct{} // closed by Close; wakes blocked ends

	// Blocking support: each side parks on a 1-slot channel after
	// setting its wait flag; the other side posts a token only when the
	// flag is up, keeping the non-blocking fast path signal-free.
	waitNotEmpty atomic.Bool
	notEmpty     chan struct{}
	waitNotFull  atomic.Bool
	notFull      chan struct{}
}

// NewSPSC returns an SPSC queue with capacity rounded up to a power of
// two (minimum 2). The result implements Queue[T]; the SPSC contract is
// documented on the type.
func NewSPSC[T any](capacity int) *SPSC[T] {
	c := uint64(2)
	for int(c) < capacity {
		c <<= 1
	}
	return &SPSC[T]{
		buf:      make([]T, c),
		mask:     c - 1,
		done:     make(chan struct{}),
		notEmpty: make(chan struct{}, 1),
		notFull:  make(chan struct{}, 1),
	}
}

// TryEnqueue implements Queue. Producer side only.
func (q *SPSC[T]) TryEnqueue(v T) bool {
	if q.closed.Load() {
		return false
	}
	t := q.tail.Load()
	if t-q.cachedHead == uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead == uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	q.wakeConsumer()
	return true
}

// TryEnqueueBatch implements Queue: it enqueues a prefix of vs and
// returns how many elements were accepted (0 when full or closed). The
// tail index is published once for the whole batch, so the consumer
// observes the batch atomically and the shared cache line is touched
// once per batch instead of once per element.
func (q *SPSC[T]) TryEnqueueBatch(vs []T) int {
	if q.closed.Load() || len(vs) == 0 {
		return 0
	}
	t := q.tail.Load()
	free := uint64(len(q.buf)) - (t - q.cachedHead)
	if free < uint64(len(vs)) {
		q.cachedHead = q.head.Load()
		free = uint64(len(q.buf)) - (t - q.cachedHead)
	}
	n := uint64(len(vs))
	if n > free {
		n = free
	}
	for i := uint64(0); i < n; i++ {
		q.buf[(t+i)&q.mask] = vs[i]
	}
	if n > 0 {
		q.tail.Store(t + n)
		q.wakeConsumer()
	}
	return int(n)
}

// Enqueue implements Queue: it blocks until space is available or the
// queue is closed. Producer side only.
func (q *SPSC[T]) Enqueue(v T) error {
	for {
		if q.closed.Load() {
			return ErrClosed
		}
		if q.TryEnqueue(v) {
			return nil
		}
		q.waitNotFull.Store(true)
		if q.TryEnqueue(v) { // recheck after raising the flag
			q.waitNotFull.Store(false)
			return nil
		}
		select {
		case <-q.notFull:
		case <-q.done:
		}
		q.waitNotFull.Store(false)
	}
}

// TryDequeue implements Queue. Consumer side only.
func (q *SPSC[T]) TryDequeue() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h == q.cachedTail {
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // release reference for GC
	q.head.Store(h + 1)
	q.wakeProducer()
	return v, true
}

// DequeueBatch implements Queue: it drains up to len(dst) elements into
// dst and returns the count (0 when empty). Like TryEnqueueBatch it
// publishes head once per batch.
func (q *SPSC[T]) DequeueBatch(dst []T) int {
	var zero T
	h := q.head.Load()
	avail := q.cachedTail - h
	if avail == 0 {
		q.cachedTail = q.tail.Load()
		avail = q.cachedTail - h
		if avail == 0 {
			return 0
		}
	}
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		idx := (h + i) & q.mask
		dst[i] = q.buf[idx]
		q.buf[idx] = zero
	}
	q.head.Store(h + n)
	q.wakeProducer()
	return int(n)
}

// Dequeue implements Queue: it blocks until an element is available,
// returning ErrClosed once the queue is closed and drained. Consumer
// side only.
func (q *SPSC[T]) Dequeue() (T, error) { return q.DequeueOr(nil) }

// DequeueOr is Dequeue that also gives up, with ErrStopped, when stop is
// closed while the queue is empty: the consumer parks on the queue and
// its own stop signal in one select, with no helper goroutine. A nil
// stop never fires. Consumer side only.
func (q *SPSC[T]) DequeueOr(stop <-chan struct{}) (T, error) {
	for {
		if v, ok := q.TryDequeue(); ok {
			return v, nil
		}
		if q.closed.Load() {
			// Drain race: elements may have landed between the failed
			// TryDequeue and the closed check.
			if v, ok := q.TryDequeue(); ok {
				return v, nil
			}
			var zero T
			return zero, ErrClosed
		}
		q.waitNotEmpty.Store(true)
		if v, ok := q.TryDequeue(); ok { // recheck after raising the flag
			q.waitNotEmpty.Store(false)
			return v, nil
		}
		select {
		case <-q.notEmpty:
		case <-q.done:
		case <-stop:
			q.waitNotEmpty.Store(false)
			var zero T
			return zero, ErrStopped
		}
		q.waitNotEmpty.Store(false)
	}
}

func (q *SPSC[T]) wakeConsumer() {
	if q.waitNotEmpty.Load() {
		select {
		case q.notEmpty <- struct{}{}:
		default:
		}
	}
}

func (q *SPSC[T]) wakeProducer() {
	if q.waitNotFull.Load() {
		select {
		case q.notFull <- struct{}{}:
		default:
		}
	}
}

// Close implements Queue: enqueues fail afterwards; dequeues drain the
// remaining elements. Close may be called from any goroutine.
func (q *SPSC[T]) Close() {
	q.closed.Store(true)
	q.once.Do(func() { close(q.done) })
}

// Len implements Queue: a lock-free head/tail read. Under concurrent
// enqueue/dequeue the result is a linearizable-enough estimate for
// back-pressure routing — it never goes negative and is exact whenever
// either end is quiescent.
func (q *SPSC[T]) Len() int {
	h := q.head.Load() // read head first: tail only grows, so tail ≥ h
	t := q.tail.Load()
	n := t - h
	if n > uint64(len(q.buf)) {
		n = uint64(len(q.buf))
	}
	return int(n)
}

// Cap implements Queue (the rounded-up power-of-two capacity).
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Closed implements Queue.
func (q *SPSC[T]) Closed() bool { return q.closed.Load() }
