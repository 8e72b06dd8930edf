package executor

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/fanout"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/tuple"
)

// TestPoolOwnershipStress round-trips pooled tuples through the whole
// dataflow — PushBatch → EO data Fjord → eddy → grouped filter →
// projection → SPSC subscription — while the consumer runs concurrently
// with the producer, recycling rows as it retires them. The query also
// has a spool and a fan-out subscriber, which keep only the rows' text:
// the Hub must render a row before the consumer can recycle it. It
// asserts the ownership rules hold: a delivered row the consumer still
// holds is never reused by the pool, every pushed tuple is delivered
// exactly once, to the subscription and to the fan-out, and no value is
// corrupted in flight or in the spooled text. Run it with -race, and
// with -tags tcqdebug to make premature reuse deterministic (recycled
// tuples are poisoned).
func TestPoolOwnershipStress(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.CreateStream("ticks", []tuple.Column{
		{Name: "id", Kind: tuple.KindInt},
		{Name: "val", Kind: tuple.KindFloat},
	}, false); err != nil {
		t.Fatal(err)
	}
	x := New(cat, Options{QueueCap: 1 << 15, SubscriptionCap: 1 << 15, SampleInterval: -1})
	defer x.Close()

	// Projection keeps delivered rows recyclable (raw SELECT * rows are
	// retained by the engine for fan-out and would bypass the pool).
	const total = 20000
	id, sub := submit(t, x, "SELECT id, val FROM ticks WHERE val >= 0")
	spool := x.Hub().SpoolFor(id, 0)
	fan, err := x.SubscribeFanout(id, fanout.SubOptions{
		Queue: 1024,
		QoS:   fjord.QoS{Policy: fjord.Block, BlockTimeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("row %d ", id)
	var fanRows atomic.Int64
	fanDone := make(chan struct{})
	go func() { // the fan-out client: every frame line is an intact row
		defer close(fanDone)
		seen := make([]bool, total)
		for {
			f, ok := fan.NextFrame()
			if !ok {
				return
			}
			for _, line := range strings.SplitAfter(string(f.Bytes()), "\n") {
				if line == "" {
					continue
				}
				rid, ok := checkLine(strings.TrimPrefix(line, prefix), total)
				if !ok || !strings.HasPrefix(line, prefix) || seen[rid] {
					t.Errorf("bad or repeated fan-out line %q", line)
					f.Release()
					return
				}
				seen[rid] = true
				fanRows.Add(1)
			}
			f.Release()
		}
	}()

	const batch = 64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows := make([][]tuple.Value, 0, batch)
		for i := 0; i < total; i++ {
			rows = append(rows, []tuple.Value{
				tuple.Int(int64(i)), tuple.Float(float64(i) * 2),
			})
			if len(rows) == batch || i == total-1 {
				if _, err := x.PushBatch("ticks", rows); err != nil {
					t.Error(err)
					return
				}
				rows = rows[:0]
			}
		}
	}()

	// The consumer retires odd rows on receipt, and holds a window of
	// even ones un-recycled and re-verifies their contents as later rows
	// flow: if any module recycled a delivered row prematurely, the pool
	// would hand its memory to a new tuple and the held snapshot would
	// change (under tcqdebug it would read poison).
	type held struct {
		row *tuple.Tuple
		id  int64
		val float64
	}
	seen := make([]bool, total)
	var window []held
	verify := func() {
		for _, h := range window {
			if len(h.row.Values) != 2 ||
				h.row.Values[0].I != h.id || h.row.Values[1].F != h.val {
				t.Fatalf("held row mutated: want (%d,%g) got %v", h.id, h.val, h.row.Values)
			}
			tuple.Recycle(h.row)
		}
		window = window[:0]
	}
	got := 0
	buf := make([]*tuple.Tuple, 128)
	for got < total {
		n := sub.NextBatch(buf)
		if n == 0 {
			// Wait for more rows or for the books to balance. The
			// timeout is per stall and resets on every delivery, so a
			// slow box that keeps making progress never trips it.
			done := false
			waitFor(t, 30*time.Second, "rows or balanced delivery books", func() bool {
				if sub.Len() > 0 {
					return true
				}
				if err := x.Barrier(); err != nil {
					t.Fatal(err)
				}
				if sub.Len() == 0 && got+int(x.Shed()) >= total {
					done = true
					return true
				}
				return false
			})
			if done {
				break
			}
			continue
		}
		for _, row := range buf[:n] {
			if len(row.Values) != 2 {
				t.Fatalf("row arity %d: %v", len(row.Values), row.Values)
			}
			id, val := row.Values[0].I, row.Values[1].F
			if id < 0 || id >= total || val != float64(id)*2 {
				t.Fatalf("corrupt row (%d,%g)", id, val)
			}
			if seen[id] {
				t.Fatalf("row %d delivered twice", id)
			}
			seen[id] = true
			got++
			if id%2 == 1 {
				// Retire at once, racing whatever still reads the row
				// after handing it over: under -race an unordered read
				// reports, under tcqdebug it renders poison.
				tuple.Recycle(row)
				continue
			}
			window = append(window, held{row: row, id: id, val: val})
		}
		if len(window) >= 512 {
			verify()
		}
	}
	verify()
	wg.Wait()
	waitFor(t, 30*time.Second, "the fan-out to see every delivered row", func() bool {
		return fanRows.Load() >= int64(got)
	})
	fan.Close()
	<-fanDone
	if n := fanRows.Load(); n != int64(got) {
		t.Fatalf("fan-out saw %d rows, the subscription %d", n, got)
	}
	if spool.End() != int64(got) {
		t.Fatalf("spool logged %d rows, %d delivered", spool.End(), got)
	}
	text, n, _ := spool.Fetch(0)
	lines := strings.SplitAfter(string(text), "\n")
	if len(lines) != n+1 || n != int(spool.End()-spool.Base()) {
		t.Fatalf("spool returned %d lines for %d rows", len(lines)-1, n)
	}
	for _, line := range lines[:n] {
		if _, ok := checkLine(line, total); !ok {
			t.Fatalf("corrupt spooled line %q", line)
		}
	}

	if shed := x.Shed(); got+int(shed) != total {
		t.Fatalf("delivered %d + shed %d != pushed %d", got, shed, total)
	}
	if shed := x.Shed(); shed > 0 {
		t.Logf("note: %d rows shed under load", shed)
	}
}

// checkLine parses one wire line "<id>,<val>\n" of the stress query and
// reports its id and whether it is intact (val == 2·id, id in range).
func checkLine(line string, total int) (int, bool) {
	a, b, ok := strings.Cut(strings.TrimSuffix(line, "\n"), ",")
	id, err1 := strconv.Atoi(a)
	val, err2 := strconv.ParseFloat(b, 64)
	if !ok || err1 != nil || err2 != nil || id < 0 || id >= total || val != float64(id)*2 {
		return 0, false
	}
	return id, true
}
