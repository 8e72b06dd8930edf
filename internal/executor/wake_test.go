package executor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/egress"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// withIdleTick sets idleTick for the executors a test creates (a group
// reads it once, when it is built) and restores it when the test ends.
func withIdleTick(t *testing.T, d time.Duration) {
	t.Helper()
	old := idleTick
	idleTick = d
	t.Cleanup(func() { idleTick = old })
}

// submitErr is submit for goroutines other than the test's own.
func submitErr(x *Executor, q string) (int, *egress.Subscription, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return 0, nil, err
	}
	return x.Submit(st.(*sql.Select))
}

// TestControlRoundTripsAreWoken raises the idle tick to 10 s, so an EO or
// hash shard that waited out even one tick would blow the 2 s budget:
// every Submit, Cancel, Barrier, stats scrape and the final Close on an
// idle EO must be woken, with and without hash shards.
func TestControlRoundTripsAreWoken(t *testing.T) {
	withIdleTick(t, 10*time.Second)
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cat := newCat(t)
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				x := New(cat, Options{Shards: shards, SampleInterval: -1})
				defer func() {
					x.Close()
					close(done)
				}()
				var ids []int
				for i := 0; i < 64; i++ {
					id, _, err := submitErr(x, fmt.Sprintf(`SELECT sym, price FROM stocks WHERE price > %d`, i))
					if err != nil {
						done <- err
						return
					}
					ids = append(ids, id)
				}
				for _, id := range ids {
					if err := x.Cancel(id); err != nil {
						done <- err
						return
					}
				}
				if err := x.Barrier(); err != nil {
					done <- err
					return
				}
				if len(x.Metrics().Gather()) == 0 {
					done <- fmt.Errorf("stats scrape returned no samples")
				}
			}()
			select {
			case err, failed := <-done:
				if failed {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a control round-trip waited out the idle tick")
			}
			t.Logf("64 submits + 64 cancels + barrier + scrape + close: %v", time.Since(start))
		})
	}
}

// TestNoLostWakeUnderChurn runs four goroutines of Submit/Barrier/Cancel
// beside a PushBatch loop for two seconds. The idle tick is raised to an
// hour, so a lost wake-up hangs a call instead of delaying it: every call
// must return, and two standing queries must deliver the same result
// multisets as a serial run of the same batches.
func TestNoLostWakeUnderChurn(t *testing.T) {
	withIdleTick(t, time.Hour)
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			churned, batches := runChurn(t, shards, 2*time.Second, -1)
			serial, _ := runChurn(t, shards, 0, batches)
			for q := range serial {
				if fmt.Sprint(churned[q]) != fmt.Sprint(serial[q]) {
					t.Fatalf("query %d: result multisets differ (%d distinct rows under churn, %d serially)",
						q, len(churned[q]), len(serial[q]))
				}
			}
			t.Logf("%d batches of 64 rows beside the churn", batches)
		})
	}
}

// runChurn registers two standing queries and pushes 64-row batches of
// stocks, with a Barrier after each: for window with four churn
// goroutines beside it, or, when batches ≥ 0, exactly that many batches
// and no churn. It returns each standing query's result multiset and the
// number of batches pushed.
func runChurn(t *testing.T, shards int, window time.Duration, batches int) ([2]map[string]int, int) {
	t.Helper()
	x := New(newCat(t), Options{Shards: shards, SampleInterval: -1})
	defer x.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; batches < 0 && g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, sub, err := submitErr(x, fmt.Sprintf(`SELECT sym FROM stocks WHERE price > %d`, (g*31+i)%100))
				if err == nil {
					err = x.Barrier()
				}
				if err == nil {
					err = x.Cancel(id)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for r, ok := sub.TryNext(); ok; r, ok = sub.TryNext() {
					tuple.Recycle(r)
				}
			}
		}(g)
	}

	got := [2]map[string]int{{}, {}}
	pushed := make(chan int, 1)
	go func() {
		defer close(stop)
		var subs [2]*egress.Subscription
		for q, text := range []string{
			`SELECT sym, price FROM stocks WHERE price > 50`,
			`SELECT price FROM stocks WHERE sym = 'C'`,
		} {
			var err error
			if _, subs[q], err = submitErr(x, text); err != nil {
				t.Error(err)
				pushed <- 0
				return
			}
		}
		syms := []string{"A", "B", "C", "D", "E"}
		rows := make([][]tuple.Value, 64)
		deadline := time.Now().Add(window)
		more := func(n int) bool {
			if batches >= 0 {
				return n < batches
			}
			return time.Now().Before(deadline)
		}
		n := 0
		for ; more(n); n++ {
			for i := range rows {
				k := n*len(rows) + i
				rows[i] = []tuple.Value{tuple.String(syms[k%len(syms)]), tuple.Float(float64(k % 101))}
			}
			_, err := x.PushBatch("stocks", rows)
			if err == nil {
				err = x.Barrier()
			}
			if err != nil {
				t.Error(err)
				break
			}
			for q, sub := range subs {
				for r, ok := sub.TryNext(); ok; r, ok = sub.TryNext() {
					got[q][rowKey(r)]++
					tuple.Recycle(r)
				}
			}
		}
		pushed <- n
	}()
	var n int
	select {
	case n = <-pushed:
	case <-time.After(window + 30*time.Second):
		t.Fatal("a Submit, PushBatch or Barrier never returned: lost wake-up")
	}
	churners := make(chan struct{})
	go func() { wg.Wait(); close(churners) }()
	select {
	case <-churners:
	case <-time.After(30 * time.Second):
		t.Fatal("a Submit, Barrier or Cancel never returned: lost wake-up")
	}
	if shed := x.Shed(); shed != 0 {
		t.Fatalf("%d rows shed; the multisets are not comparable", shed)
	}
	return got, n
}
