package executor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/tuple"
)

// pushN pushes n stock rows and returns how many Push accepted.
func pushN(t *testing.T, x *Executor, n int) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := x.Push("stocks", []tuple.Value{
			tuple.String("SYM"), tuple.Float(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return int64(n)
}

// drainAll consumes the subscription until the engine is quiet and
// returns the delivered count. Each pass runs a barrier (flushing the
// ingress path) and then empties the ring; the drain is done only when
// a whole pass delivers nothing new, because in-flight rows can still
// be crossing the SPSC ring after the barrier returns.
func drainAll(t *testing.T, x *Executor, sub interface {
	TryNext() (*tuple.Tuple, bool)
	Len() int
}) int64 {
	t.Helper()
	var n int64
	waitFor(t, 30*time.Second, "subscription to drain", func() bool {
		if err := x.Barrier(); err != nil {
			t.Fatal(err)
		}
		before := n
		for {
			r, ok := sub.TryNext()
			if !ok {
				break
			}
			tuple.Recycle(r)
			n++
		}
		return n == before && sub.Len() == 0
	})
	return n
}

// TestOverflowAccounting reconciles the QoS books under every overflow
// policy while a chaos injector reports the ingress queue full at
// random: every pushed tuple is either delivered to the subscriber or
// counted shed — exactly, no silent loss.
func TestOverflowAccounting(t *testing.T) {
	const n = 2000
	cases := []struct {
		name     string
		qos      fjord.QoS
		wantShed bool // policy sheds under queue-full bursts
		exactAll bool // every tuple must be delivered (block)
	}{
		{"drop-newest", fjord.QoS{Policy: fjord.DropNewest}, true, false},
		{"drop-oldest", fjord.QoS{Policy: fjord.DropOldest}, true, false},
		{"sample", fjord.QoS{Policy: fjord.Sample, SampleP: 0.5}, true, false},
		{"block", fjord.QoS{Policy: fjord.Block, BlockTimeout: 5 * time.Second}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := New(newCat(t), Options{
				SubscriptionCap: 2 * n,
				Chaos:           chaos.New(chaos.Config{Seed: 11, QueueFull: 0.3}),
			})
			defer x.Close()
			src, err := x.cat.Lookup("stocks")
			if err != nil {
				t.Fatal(err)
			}
			src.SetQoS(tc.qos)
			_, sub := submit(t, x, `SELECT sym, price FROM stocks`)

			pushed := pushN(t, x, n)
			delivered := drainAll(t, x, sub)
			shed := x.StreamShed("stocks")

			if sub.Dropped() != 0 {
				t.Fatalf("subscription shed %d rows; raise SubscriptionCap", sub.Dropped())
			}
			if delivered+shed != pushed {
				t.Fatalf("accounting broken: delivered %d + shed %d != pushed %d",
					delivered, shed, pushed)
			}
			if tc.exactAll && delivered != pushed {
				t.Fatalf("block lost tuples: delivered %d of %d (shed %d)", delivered, pushed, shed)
			}
			if tc.wantShed && shed == 0 {
				t.Fatalf("policy %s never shed under 30%% queue-full chaos", tc.name)
			}
		})
	}
}

// TestOverflowAccountingBatch runs the same reconciliation through the
// vectorized PushBatch path (the chaos burst diverts whole batches into
// the per-tuple policy path).
func TestOverflowAccountingBatch(t *testing.T) {
	const batches, per = 50, 40
	x := New(newCat(t), Options{
		SubscriptionCap: 2 * batches * per,
		Chaos:           chaos.New(chaos.Config{Seed: 23, QueueFull: 0.3}),
	})
	defer x.Close()
	src, err := x.cat.Lookup("stocks")
	if err != nil {
		t.Fatal(err)
	}
	src.SetQoS(fjord.QoS{Policy: fjord.DropOldest})
	_, sub := submit(t, x, `SELECT sym, price FROM stocks`)

	for b := 0; b < batches; b++ {
		rows := make([][]tuple.Value, per)
		for i := range rows {
			rows[i] = []tuple.Value{tuple.String("SYM"), tuple.Float(float64(i))}
		}
		if _, err := x.PushBatch("stocks", rows); err != nil {
			t.Fatal(err)
		}
	}
	pushed := int64(batches * per)
	delivered := drainAll(t, x, sub)
	shed := x.StreamShed("stocks")
	if delivered+shed != pushed {
		t.Fatalf("batch accounting broken: delivered %d + shed %d != pushed %d",
			delivered, shed, pushed)
	}
	if shed == 0 {
		t.Fatal("no shedding under 30% queue-full chaos")
	}
}

// TestPanicQuarantineIsolatesQuery injects an operator panic into the EO
// that reads stocks — on the EO goroutine itself (no hash shards) and
// inside a hash shard — and verifies the blast radius: that query dies
// with a diagnosable error, the news query on its own EO keeps
// producing, and the engine as a whole (Push, Barrier, Close) stays
// usable.
func TestPanicQuarantineIsolatesQuery(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testPanicQuarantine(t, shards)
		})
	}
}

func testPanicQuarantine(t *testing.T, shards int) {
	x := New(newCat(t), Options{
		Mode:   ClassByFootprint, // stocks and news land on separate EOs
		Shards: shards,
		Chaos:  chaos.New(chaos.Config{Seed: 3, PanicStream: "stocks"}),
	})
	defer x.Close()
	idStocks, subStocks := submit(t, x, `SELECT sym, price FROM stocks`)
	idNews, subNews := submit(t, x, `SELECT sym, score FROM news`)
	if x.EOCount() != 2 {
		t.Fatalf("EOCount=%d, want 2 (disjoint footprints)", x.EOCount())
	}

	// The first stocks tuple admitted into an engine host trips the panic.
	pushN(t, x, 5)
	waitFor(t, 30*time.Second, "the EO to quarantine", func() bool {
		return x.Quarantines() != 0
	})
	if got := x.Quarantines(); got != 1 {
		t.Fatalf("quarantines=%d, want 1", got)
	}

	// The stocks query died with a diagnosable, wrapped error...
	if err := x.QueryErr(idStocks); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("QueryErr(stocks)=%v, want ErrQuarantined", err)
	}
	if err := subStocks.Err(); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("subscription Err=%v, want ErrQuarantined", err)
	}
	// ...and its subscription terminates rather than hanging: drain any
	// rows that landed before the panic, then see it report closed.
	waitFor(t, 30*time.Second, "quarantined subscription to close", func() bool {
		for {
			r, ok := subStocks.TryNext()
			if !ok {
				break
			}
			tuple.Recycle(r)
		}
		return subStocks.Closed()
	})

	// Pushing to the dead query's stream must not crash or error.
	if _, err := x.Push("stocks", []tuple.Value{tuple.String("S"), tuple.Float(1)}); err != nil {
		t.Fatalf("push to quarantined stream: %v", err)
	}

	// The news query is untouched: it still delivers.
	for i := 0; i < 10; i++ {
		if _, err := x.Push("news", []tuple.Value{tuple.String("N"), tuple.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainAll(t, x, subNews); got != 10 {
		t.Fatalf("news delivered %d of 10 after sibling quarantine", got)
	}
	if err := x.QueryErr(idNews); err != nil {
		t.Fatalf("QueryErr(news)=%v, want nil", err)
	}

	// A barrier across a half-quarantined executor completes.
	if err := x.Barrier(); err != nil {
		t.Fatalf("barrier after quarantine: %v", err)
	}
	// Cancel of the dead query is a no-op, not a hang.
	if err := x.Cancel(idStocks); err != nil {
		t.Fatalf("cancel quarantined query: %v", err)
	}
}

// TestQuarantineVisibleInTelemetry checks the operator-facing trail a
// panic leaves: the quarantine counter and the per-stream shed counters
// appear in the metrics registry.
func TestQuarantineVisibleInTelemetry(t *testing.T) {
	x := New(newCat(t), Options{
		Chaos: chaos.New(chaos.Config{Seed: 5, PanicStream: "stocks"}),
	})
	defer x.Close()
	submit(t, x, `SELECT sym, price FROM stocks`)
	pushN(t, x, 3)
	waitFor(t, 30*time.Second, "the EO to quarantine", func() bool {
		return x.Quarantines() != 0
	})
	found := false
	for _, s := range x.Metrics().Gather() {
		if s.Name == "tcq_eo_quarantined_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("tcq_eo_quarantined_total not reported")
	}
}
