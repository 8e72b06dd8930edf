package fjord

import (
	"sync"
	"testing"
	"time"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", q.Cap())
	}
	for i := 0; i < 4; i++ {
		if !q.TryEnqueue(i) {
			t.Fatalf("TryEnqueue(%d) failed on non-full queue", i)
		}
	}
	if q.TryEnqueue(99) {
		t.Fatal("TryEnqueue succeeded on full queue")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryDequeue()
		if !ok || v != i {
			t.Fatalf("TryDequeue = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue succeeded on empty queue")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {100, 128},
	} {
		if got := NewSPSC[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestSPSCBatchContract(t *testing.T) {
	q := NewSPSC[int](8)
	// Partial accept: batch larger than free space takes a prefix.
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := q.TryEnqueueBatch(in); n != 8 {
		t.Fatalf("TryEnqueueBatch accepted %d, want 8", n)
	}
	if n := q.TryEnqueueBatch(in); n != 0 {
		t.Fatalf("TryEnqueueBatch on full queue accepted %d, want 0", n)
	}
	// Drain-up-to-N: small dst drains a prefix in FIFO order.
	dst := make([]int, 3)
	if n := q.DequeueBatch(dst); n != 3 {
		t.Fatalf("DequeueBatch = %d, want 3", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i)
		}
	}
	// Large dst drains what remains.
	big := make([]int, 16)
	if n := q.DequeueBatch(big); n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if big[i] != i+3 {
			t.Fatalf("big[%d] = %d, want %d", i, big[i], i+3)
		}
	}
	if n := q.DequeueBatch(big); n != 0 {
		t.Fatalf("DequeueBatch on empty queue = %d, want 0", n)
	}
}

func TestSPSCFIFOAcrossGoroutines(t *testing.T) {
	const total = 200000
	q := NewSPSC[int](64)
	done := make(chan error, 1)
	go func() {
		next := 0
		buf := make([]int, 17) // odd size to exercise wrap-around
		for next < total {
			n := q.DequeueBatch(buf)
			if n == 0 {
				v, err := q.Dequeue()
				if err != nil {
					done <- err
					return
				}
				buf[0], n = v, 1
			}
			for i := 0; i < n; i++ {
				if buf[i] != next {
					t.Errorf("out of order: got %d, want %d", buf[i], next)
					done <- nil
					return
				}
				next++
			}
		}
		done <- nil
	}()
	batch := make([]int, 13)
	i := 0
	for i < total {
		n := 0
		for n < len(batch) && i < total {
			batch[n] = i
			n++
			i++
		}
		sent := 0
		for sent < n {
			m := q.TryEnqueueBatch(batch[sent:n])
			if m == 0 {
				if err := q.Enqueue(batch[sent]); err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
				m = 1
			}
			sent += m
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("consumer: %v", err)
	}
}

// TestSPSCLenConcurrent pins the Len() contract the back-pressure router
// relies on: under concurrent enqueue/dequeue it must stay within
// [0, Cap] and be exact when both ends are quiescent.
func TestSPSCLenConcurrent(t *testing.T) {
	q := NewSPSC[int](32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q.TryEnqueue(i)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.TryDequeue()
		}
	}()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := q.Len(); n < 0 || n > q.Cap() {
			close(stop)
			wg.Wait()
			t.Fatalf("Len = %d out of range [0,%d]", n, q.Cap())
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent: Len must be exact — drain and recount.
	want := 0
	for {
		if _, ok := q.TryDequeue(); !ok {
			break
		}
		want++
		_ = want
	}
	if q.Len() != 0 {
		t.Fatalf("quiescent Len = %d after drain, want 0", q.Len())
	}
}

func TestMutexRingLenConcurrent(t *testing.T) {
	q := NewPush[int](32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q.TryEnqueue(i)
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]int, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.DequeueBatch(buf)
		}
	}()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := q.Len(); n < 0 || n > q.Cap() {
			close(stop)
			wg.Wait()
			t.Fatalf("Len = %d out of range [0,%d]", n, q.Cap())
		}
	}
	close(stop)
	wg.Wait()
}

func TestSPSCClose(t *testing.T) {
	q := NewSPSC[int](4)
	q.TryEnqueue(1)
	q.TryEnqueue(2)
	q.Close()
	if q.TryEnqueue(3) {
		t.Fatal("TryEnqueue succeeded after Close")
	}
	if n := q.TryEnqueueBatch([]int{3, 4}); n != 0 {
		t.Fatalf("TryEnqueueBatch after Close = %d, want 0", n)
	}
	if err := q.Enqueue(3); err != ErrClosed {
		t.Fatalf("Enqueue after Close = %v, want ErrClosed", err)
	}
	// Dequeues drain the remainder, then report closed.
	for _, want := range []int{1, 2} {
		v, err := q.Dequeue()
		if err != nil || v != want {
			t.Fatalf("Dequeue = %d,%v, want %d,nil", v, err, want)
		}
	}
	if _, err := q.Dequeue(); err != ErrClosed {
		t.Fatalf("Dequeue on drained closed queue = %v, want ErrClosed", err)
	}
	if !q.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

func TestSPSCBlockingWakeups(t *testing.T) {
	q := NewSPSC[int](2)
	// Blocked Dequeue wakes on enqueue.
	got := make(chan int, 1)
	go func() {
		v, err := q.Dequeue()
		if err != nil {
			t.Errorf("Dequeue: %v", err)
		}
		got <- v
	}()
	time.Sleep(5 * time.Millisecond) // let the consumer park
	q.TryEnqueue(42)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("Dequeue woke with %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Dequeue never woke on enqueue")
	}

	// Blocked Enqueue wakes on dequeue.
	q.TryEnqueue(1)
	q.TryEnqueue(2)
	enqDone := make(chan error, 1)
	go func() { enqDone <- q.Enqueue(3) }()
	time.Sleep(5 * time.Millisecond)
	if _, ok := q.TryDequeue(); !ok {
		t.Fatal("TryDequeue failed on full queue")
	}
	select {
	case err := <-enqDone:
		if err != nil {
			t.Fatalf("Enqueue after space freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Enqueue never woke on dequeue")
	}

	// Blocked Dequeue wakes on Close.
	q2 := NewSPSC[int](2)
	deqDone := make(chan error, 1)
	go func() {
		_, err := q2.Dequeue()
		deqDone <- err
	}()
	time.Sleep(5 * time.Millisecond)
	q2.Close()
	select {
	case err := <-deqDone:
		if err != ErrClosed {
			t.Fatalf("Dequeue on Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Dequeue never woke on Close")
	}

	// DequeueOr on an empty queue returns ErrStopped when its stop signal
	// closes, parked or not; once stopped, it still hands out what is
	// queued before reporting ErrStopped.
	q3 := NewSPSC[int](2)
	stop := make(chan struct{})
	go func() {
		_, err := q3.DequeueOr(stop)
		deqDone <- err
	}()
	close(stop)
	select {
	case err := <-deqDone:
		if err != ErrStopped {
			t.Fatalf("DequeueOr on stop = %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked DequeueOr never woke on stop")
	}
	q3.TryEnqueue(7)
	if v, err := q3.DequeueOr(stop); v != 7 || err != nil {
		t.Fatalf("DequeueOr after stop with a queued element = %d, %v", v, err)
	}
	if _, err := q3.DequeueOr(stop); err != ErrStopped {
		t.Fatalf("DequeueOr after stop on an empty queue = %v, want ErrStopped", err)
	}
}

func TestMutexRingBatchContract(t *testing.T) {
	q := NewPush[int](8)
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := q.TryEnqueueBatch(in); n != 8 {
		t.Fatalf("TryEnqueueBatch accepted %d, want 8", n)
	}
	dst := make([]int, 5)
	if n := q.DequeueBatch(dst); n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5", n)
	}
	for i, v := range dst {
		if v != i {
			t.Fatalf("dst[%d] = %d, want %d", i, v, i)
		}
	}
	if n := q.TryEnqueueBatch(in[8:]); n != 2 {
		t.Fatalf("TryEnqueueBatch wrap accepted %d, want 2", n)
	}
	want := []int{5, 6, 7, 8, 9}
	big := make([]int, 8)
	if n := q.DequeueBatch(big); n != 5 {
		t.Fatalf("DequeueBatch = %d, want 5", n)
	}
	for i, w := range want {
		if big[i] != w {
			t.Fatalf("big[%d] = %d, want %d", i, big[i], w)
		}
	}
	q.Close()
	if n := q.TryEnqueueBatch(in); n != 0 {
		t.Fatalf("TryEnqueueBatch after Close = %d, want 0", n)
	}
}

func TestCountedBatchCountsElements(t *testing.T) {
	c := Count(NewPush[int](4))
	if n := c.TryEnqueueBatch([]int{1, 2, 3, 4, 5}); n != 4 {
		t.Fatalf("TryEnqueueBatch = %d, want 4", n)
	}
	st := c.Stats()
	if st.Enqueued != 4 {
		t.Fatalf("Enqueued = %d, want 4 (must count tuples, not batches)", st.Enqueued)
	}
	if st.EnqueueFails != 1 {
		t.Fatalf("EnqueueFails = %d, want 1 (partial accept is one stall)", st.EnqueueFails)
	}
	dst := make([]int, 8)
	if n := c.DequeueBatch(dst); n != 4 {
		t.Fatalf("DequeueBatch = %d, want 4", n)
	}
	if n := c.DequeueBatch(dst); n != 0 {
		t.Fatalf("DequeueBatch on empty = %d, want 0", n)
	}
	st = c.Stats()
	if st.Dequeued != 4 {
		t.Fatalf("Dequeued = %d, want 4 (must count tuples, not batches)", st.Dequeued)
	}
	if st.DequeueEmpty != 1 {
		t.Fatalf("DequeueEmpty = %d, want 1", st.DequeueEmpty)
	}
}
