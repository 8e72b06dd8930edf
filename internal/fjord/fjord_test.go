package fjord

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	q := NewPush[int](4)
	for i := 0; i < 4; i++ {
		if err := q.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		v, err := q.Dequeue()
		if err != nil || v != i {
			t.Fatalf("Dequeue = %d, %v; want %d", v, err, i)
		}
	}
}

func TestWrapAround(t *testing.T) {
	q := NewPush[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.TryEnqueue(round*3 + i) {
				t.Fatal("TryEnqueue failed with space available")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryDequeue()
			if !ok || v != round*3+i {
				t.Fatalf("round %d: got %d,%v", round, v, ok)
			}
		}
	}
}

func TestTryEnqueueFull(t *testing.T) {
	q := NewPush[int](2)
	if !q.TryEnqueue(1) || !q.TryEnqueue(2) {
		t.Fatal("enqueue with space failed")
	}
	if q.TryEnqueue(3) {
		t.Fatal("TryEnqueue succeeded on full queue")
	}
	if q.Len() != 2 || q.Cap() != 2 {
		t.Fatalf("Len=%d Cap=%d", q.Len(), q.Cap())
	}
}

func TestTryDequeueEmpty(t *testing.T) {
	q := NewPush[string](2)
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("TryDequeue succeeded on empty queue")
	}
}

func TestCloseSemantics(t *testing.T) {
	q := NewPush[int](4)
	_ = q.Enqueue(1)
	_ = q.Enqueue(2)
	q.Close()
	if !q.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if err := q.Enqueue(3); err != ErrClosed {
		t.Fatalf("Enqueue after close = %v", err)
	}
	if q.TryEnqueue(3) {
		t.Fatal("TryEnqueue after close succeeded")
	}
	// Drain remaining.
	if v, err := q.Dequeue(); err != nil || v != 1 {
		t.Fatalf("drain 1: %d, %v", v, err)
	}
	if v, ok := q.TryDequeue(); !ok || v != 2 {
		t.Fatalf("drain 2: %d, %v", v, ok)
	}
	if _, err := q.Dequeue(); err != ErrClosed {
		t.Fatalf("Dequeue after drain = %v", err)
	}
	q.Close() // idempotent
}

func TestBlockingEnqueueWaits(t *testing.T) {
	q := NewPush[int](1)
	_ = q.Enqueue(1)
	done := make(chan error, 1)
	go func() { done <- q.Enqueue(2) }()
	select {
	case <-done:
		t.Fatal("Enqueue returned while queue full")
	case <-time.After(20 * time.Millisecond):
	}
	if v, _ := q.Dequeue(); v != 1 {
		t.Fatal("wrong head")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _ := q.Dequeue(); v != 2 {
		t.Fatal("blocked element lost")
	}
}

func TestBlockingDequeueWaits(t *testing.T) {
	q := NewPush[int](1)
	got := make(chan int, 1)
	go func() {
		v, _ := q.Dequeue()
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("Dequeue returned on empty queue")
	case <-time.After(20 * time.Millisecond):
	}
	_ = q.Enqueue(42)
	if v := <-got; v != 42 {
		t.Fatalf("got %d", v)
	}
}

func TestCloseWakesBlockedDequeue(t *testing.T) {
	q := NewPush[int](1)
	errc := make(chan error, 1)
	go func() {
		_, err := q.Dequeue()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if err := <-errc; err != ErrClosed {
		t.Fatalf("blocked Dequeue woke with %v", err)
	}
}

func TestCloseWakesBlockedEnqueue(t *testing.T) {
	q := NewPush[int](1)
	_ = q.Enqueue(1)
	errc := make(chan error, 1)
	go func() { errc <- q.Enqueue(2) }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if err := <-errc; err != ErrClosed {
		t.Fatalf("blocked Enqueue woke with %v", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 1000
	)
	q := NewPush[int](8)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				if err := q.Enqueue(p*perProd + i); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, err := q.Dequeue()
				if err != nil {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close()
	cg.Wait()
	if len(seen) != producers*perProd {
		t.Fatalf("delivered %d of %d", len(seen), producers*perProd)
	}
}

// Property: any sequence of try-ops matches a model FIFO slice.
func TestQuickModelFIFO(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewPush[int](8)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				ok := q.TryEnqueue(next)
				wantOK := len(model) < 8
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.TryDequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushQueue(b *testing.B) {
	q := NewPush[int](1024)
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(i)
		q.TryDequeue()
	}
}

func BenchmarkPullQueueContended(b *testing.B) {
	q := NewPush[int](1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := q.Dequeue(); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Enqueue(i)
	}
	q.Close()
	<-done
}
