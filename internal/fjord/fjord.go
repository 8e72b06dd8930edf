// Package fjord implements the Fjords inter-module communication API
// (§2.3 of the TelegraphCQ paper; Madden & Franklin, ICDE 2002).
//
// Fjords connect pairs of dataflow modules with queues whose enqueue and
// dequeue ends can independently be blocking or non-blocking, so the same
// module code runs over any combination of streaming (push) and static
// (pull) inputs:
//
//   - pull-queue:     blocking dequeue,     blocking enqueue (iterator-like)
//   - push-queue:     non-blocking dequeue, non-blocking enqueue — control
//     returns to the consumer when the queue is empty, so it can pursue
//     other work instead of stalling on a slow source
//
// The package is generic so the engine can move tuples, query plans, and
// control messages through the same machinery.
//
// Two rings implement Queue. Every edge with exactly one producer and
// one consumer is an SPSC (spsc.go, lock-free): EO → hash shard ingress,
// hash shard → EO egress, each ordered pair of the exchange Mesh, fan-out
// relay stages, and per-query result subscriptions. The mutex ring
// behind NewPush survives only on the two edges where one of those ends
// is shared:
//
//   - an Execution Object's control and data queues: many submitters
//     and many pushers enqueue concurrently, and drop-oldest QoS makes
//     a producer dequeue the head it evicts;
//   - a fan-out subscriber's frame ring: the leaf stage enqueues, but
//     under drop-oldest it also evicts from the consumer's end while
//     the subscriber dequeues.
package fjord

import (
	"errors"
	"sync"
)

// ErrClosed is returned by blocking operations on a closed queue.
var ErrClosed = errors.New("fjord: queue closed")

// ErrStopped is returned by SPSC.DequeueOr when its stop signal fired.
var ErrStopped = errors.New("fjord: wait stopped")

// Queue is the Fjord endpoint pair. TryEnqueue/TryDequeue are the
// non-blocking ends; Enqueue/Dequeue the blocking ends. Concrete queues
// implement all four so a plan can mix modalities per connection, but a
// queue's *type* documents the intended discipline.
type Queue[T any] interface {
	// TryEnqueue adds v without blocking. It reports false when the
	// queue is full or closed (the producer may bounce the tuple back
	// to its Eddy or shed it, per QoS policy).
	TryEnqueue(v T) bool
	// TryEnqueueBatch adds a prefix of vs without blocking and returns
	// how many elements were accepted (0 when full or closed). The
	// accepted prefix is enqueued in order under a single queue
	// operation, so producers amortize synchronization over the batch.
	TryEnqueueBatch(vs []T) int
	// Enqueue blocks until space is available; returns ErrClosed if the
	// queue is closed.
	Enqueue(v T) error
	// TryDequeue removes the oldest element without blocking; ok is
	// false when the queue is empty (closed or not).
	TryDequeue() (v T, ok bool)
	// DequeueBatch drains up to len(dst) elements into dst without
	// blocking and returns the count (0 when empty). Elements arrive in
	// FIFO order under a single queue operation — the consumer-side
	// twin of TryEnqueueBatch.
	DequeueBatch(dst []T) int
	// Dequeue blocks until an element is available; returns ErrClosed
	// when the queue is closed and drained.
	Dequeue() (v T, err error)
	// Close marks the queue closed. Enqueues fail afterwards; dequeues
	// drain remaining elements.
	Close()
	// Len returns the number of queued elements (used by back-pressure
	// routing policies).
	Len() int
	// Cap returns the queue capacity.
	Cap() int
	// Closed reports whether Close has been called.
	Closed() bool
}

// ring is the shared bounded FIFO under every queue type.
type ring[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []T
	head     int // index of oldest element
	n        int // number of elements
	closed   bool
}

func newRing[T any](capacity int) *ring[T] {
	if capacity <= 0 {
		capacity = 1
	}
	r := &ring[T]{buf: make([]T, capacity)}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

func (r *ring[T]) tryEnqueue(v T) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.n == len(r.buf) {
		return false
	}
	r.put(v)
	return true
}

func (r *ring[T]) enqueue(v T) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == len(r.buf) && !r.closed {
		r.notFull.Wait()
	}
	if r.closed {
		return ErrClosed
	}
	r.put(v)
	return nil
}

// put requires r.mu held and space available.
func (r *ring[T]) put(v T) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	r.notEmpty.Signal()
}

// tryEnqueueBatch appends as much of vs as fits under one lock
// acquisition and returns the accepted count. One signal covers the
// whole batch: the waiting consumer drains everything it can per wake.
func (r *ring[T]) tryEnqueueBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	n := len(r.buf) - r.n
	if n > len(vs) {
		n = len(vs)
	}
	for i := 0; i < n; i++ {
		r.buf[(r.head+r.n+i)%len(r.buf)] = vs[i]
	}
	r.n += n
	if n > 0 {
		r.notEmpty.Signal()
	}
	return n
}

// dequeueBatch drains up to len(dst) elements under one lock
// acquisition and returns the count.
func (r *ring[T]) dequeueBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if n > len(dst) {
		n = len(dst)
	}
	var zero T
	for i := 0; i < n; i++ {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = zero // release reference for GC
		r.head = (r.head + 1) % len(r.buf)
	}
	r.n -= n
	if n > 0 {
		r.notFull.Signal()
	}
	return n
}

func (r *ring[T]) tryDequeue() (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.take(), true
}

func (r *ring[T]) dequeue() (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var zero T
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if r.n == 0 {
		return zero, ErrClosed
	}
	return r.take(), nil
}

// take requires r.mu held and an element present.
func (r *ring[T]) take() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release reference for GC
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.notFull.Signal()
	return v
}

func (r *ring[T]) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *ring[T]) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// queue adapts ring to the Queue interface. One queue serves both of
// the paper's modalities: which ends a user calls — the Try pair or the
// blocking pair — is what makes an edge push or pull.
type queue[T any] struct{ r *ring[T] }

func (q queue[T]) TryEnqueue(v T) bool        { return q.r.tryEnqueue(v) }
func (q queue[T]) TryEnqueueBatch(vs []T) int { return q.r.tryEnqueueBatch(vs) }
func (q queue[T]) Enqueue(v T) error          { return q.r.enqueue(v) }
func (q queue[T]) TryDequeue() (T, bool)      { return q.r.tryDequeue() }
func (q queue[T]) DequeueBatch(dst []T) int   { return q.r.dequeueBatch(dst) }
func (q queue[T]) Dequeue() (v T, e error)    { return q.r.dequeue() }
func (q queue[T]) Close()                     { q.r.close() }
func (q queue[T]) Len() int                   { return q.r.len() }
func (q queue[T]) Cap() int                   { return len(q.r.buf) }
func (q queue[T]) Closed() bool               { return q.r.isClosed() }

// NewPush returns a multi-producer, multi-consumer queue. Through the
// Try ends it is a push-queue: producers that find it full get false
// and may shed or bounce; consumers that find it empty regain control
// immediately (the essential Fjords property). Through Enqueue/Dequeue
// the same queue is a pull-queue (iterator model over a bounded buffer).
func NewPush[T any](capacity int) Queue[T] { return queue[T]{newRing[T](capacity)} }
