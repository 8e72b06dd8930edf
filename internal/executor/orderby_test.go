package executor

import (
	"testing"
	"time"

	"telegraphcq/internal/tuple"
)

// ORDER BY over a stream is executed as Juggle-style prioritized
// delivery: once the reorder buffer fills, the best-ranked rows come out
// first even though the stream is unbounded.
func TestOrderByPrioritizedDelivery(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	id, sub := submit(t, x, `SELECT sym, price FROM stocks ORDER BY price DESC`)

	// Push 200 rows with rotating prices; the juggle window is 64, so
	// after it fills, high prices are released ahead of low ones.
	for i := 0; i < 200; i++ {
		pushStocks(t, x, [2]any{"X", float64(i % 100)})
	}
	rows := drain(t, x, sub)
	if len(rows) != 200-64 { // 64 still buffered in the juggle
		t.Fatalf("delivered = %d, want %d", len(rows), 200-64)
	}
	// The released prefix must be biased high: its mean should clearly
	// exceed the stream mean (49.5).
	var sum float64
	for _, r := range rows[:50] {
		sum += r.Values[1].F
	}
	if mean := sum / 50; mean < 60 {
		t.Fatalf("first-released mean = %.1f, want prioritized (> 60)", mean)
	}
	// Cancel flushes the buffered remainder.
	if err := x.Cancel(id); err != nil {
		t.Fatal(err)
	}
	flushed := 0
	waitFor(t, 30*time.Second, "the reorder buffer to flush", func() bool {
		for {
			if _, ok := sub.TryNext(); !ok {
				return flushed >= 64
			}
			flushed++
		}
	})
	if flushed != 64 {
		t.Fatalf("flushed = %d, want 64", flushed)
	}
}

func TestOrderByAscWithLimit(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `SELECT price FROM stocks ORDER BY price ASC LIMIT 5`)
	for i := 0; i < 100; i++ {
		pushStocks(t, x, [2]any{"X", float64(100 - i)})
	}
	rows := drain(t, x, sub)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With a 64-deep reorder buffer over a descending push sequence, the
	// released rows are drawn from the low end of the buffered window.
	for _, r := range rows {
		if r.Values[0].F > 50 {
			t.Fatalf("asc priority released a high price: %v (rows %v)", r, rows)
		}
	}
}

func TestPushAtRepeatedTimestamps(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `
		SELECT count(*) FROM stocks
		for (t = ST; ; t += 2) { WindowIs(stocks, t + 1, t + 2); }`)
	// Three rows per logical day; windows of 2 days → 6 rows per window.
	for day := int64(1); day <= 6; day++ {
		for k := 0; k < 3; k++ {
			err := x.PushAt("stocks", day, []tuple.Value{
				tuple.String("A"), tuple.Float(1),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	rows := drain(t, x, sub)
	// Windows [1,2] and [3,4] closed (the [5,6] window needs day 7).
	if len(rows) != 2 {
		t.Fatalf("windows closed = %d", len(rows))
	}
	for _, r := range rows {
		if r.Values[1].I != 6 {
			t.Fatalf("window count = %v", r)
		}
	}
	// Regressing timestamps are rejected.
	if err := x.PushAt("stocks", 2, []tuple.Value{tuple.String("A"), tuple.Float(1)}); err == nil {
		t.Fatal("timestamp regression accepted")
	}
}

// Paper example 4 end-to-end: windowed self band-join via the SQL path.
func TestBandJoinEndToEnd(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `
		SELECT c2.sym, c2.price
		FROM stocks AS c1, stocks AS c2
		WHERE c1.sym = 'MSFT' AND c2.sym != 'MSFT' AND c2.price > c1.price
		for (t = ST; ; t++) {
			WindowIs(c1, t - 4, t);
			WindowIs(c2, t - 4, t);
		}`)
	// Day d: MSFT at 50, IBM at 50+d (beats MSFT every day).
	for day := int64(1); day <= 10; day++ {
		_ = x.PushAt("stocks", day, []tuple.Value{tuple.String("MSFT"), tuple.Float(50)})
		_ = x.PushAt("stocks", day, []tuple.Value{tuple.String("IBM"), tuple.Float(50 + float64(day))})
	}
	rows := drain(t, x, sub)
	if len(rows) == 0 {
		t.Fatal("band join delivered nothing")
	}
	for _, r := range rows {
		if r.Values[0].S != "IBM" || r.Values[1].F <= 50 {
			t.Fatalf("bad band-join row: %v", r)
		}
	}
	// Window width 5 bounds the join state: each IBM row joins at most
	// the 5 most recent MSFT rows, so the total is bounded by 10 × 5.
	if len(rows) > 50 {
		t.Fatalf("rows = %d exceeds window bound", len(rows))
	}
}
