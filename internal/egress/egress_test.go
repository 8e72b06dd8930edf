package egress

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/tuple"
)

var schema = tuple.NewSchema(tuple.Column{Source: "s", Name: "v", Kind: tuple.KindInt})

func row(v int64) *tuple.Tuple { return tuple.New(schema, tuple.Int(v)) }

func TestHubDeliverToSubscription(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(1, 4)
	h.Deliver(1, row(10))
	h.Deliver(2, row(99)) // no consumer: dropped silently
	got, ok := sub.TryNext()
	if !ok || got.Values[0].I != 10 {
		t.Fatalf("got %v %v", got, ok)
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("phantom row")
	}
}

func TestSubscriptionSheds(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(1, 2)
	for i := 0; i < 5; i++ {
		h.Deliver(1, row(int64(i)))
	}
	if sub.Dropped() != 3 || sub.Len() != 2 {
		t.Fatalf("dropped=%d len=%d", sub.Dropped(), sub.Len())
	}
}

func TestHubCloseEndsSubscription(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(1, 4)
	h.Deliver(1, row(1))
	h.Close(1)
	// Drain then closed.
	if _, ok := sub.Next(); !ok {
		t.Fatal("queued row lost at close")
	}
	if _, ok := sub.Next(); ok {
		t.Fatal("read past close")
	}
	h.Deliver(1, row(2)) // no panic after close
}

// lines renders the wire text of the rows with values lo..hi-1.
func lines(lo, hi int64) string {
	var b strings.Builder
	for v := lo; v < hi; v++ {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

func TestSpoolFetchOffsets(t *testing.T) {
	sp := NewSpool(100)
	for i := 0; i < 10; i++ {
		sp.Append(row(int64(i)))
	}
	text, n, next := sp.Fetch(0)
	if string(text) != lines(0, 10) || n != 10 || next != 10 {
		t.Fatalf("fetch all: %q (%d) next %d", text, n, next)
	}
	text, n, next = sp.Fetch(7)
	if string(text) != lines(7, 10) || n != 3 || next != 10 {
		t.Fatalf("fetch tail: %q (%d) next %d", text, n, next)
	}
	text, n, next = sp.Fetch(next)
	if len(text) != 0 || n != 0 || next != 10 {
		t.Fatalf("fetch empty: %q (%d) next %d", text, n, next)
	}
	if sp.End() != 10 {
		t.Fatalf("End = %d", sp.End())
	}
}

func TestSpoolAgesOut(t *testing.T) {
	sp := NewSpool(5)
	for i := 0; i < 12; i++ {
		sp.Append(row(int64(i)))
	}
	// Only rows 7..11 retained; fetching from 0 skips forward.
	text, n, next := sp.Fetch(0)
	if string(text) != lines(7, 12) || n != 5 || next != 12 {
		t.Fatalf("aged fetch: %q (%d) next %d", text, n, next)
	}
}

func TestHubSpoolIntegration(t *testing.T) {
	h := NewHub()
	sp := h.SpoolFor(3, 10)
	if h.SpoolFor(3, 10) != sp {
		t.Fatal("SpoolFor not idempotent")
	}
	h.Deliver(3, row(42))
	text, n, _ := sp.Fetch(0)
	if string(text) != "42\n" || n != 1 {
		t.Fatalf("spooled: %q (%d)", text, n)
	}
}

func TestCloseAll(t *testing.T) {
	h := NewHub()
	s1 := h.Subscribe(1, 2)
	h.SpoolFor(2, 2)
	h.CloseAll()
	if _, ok := s1.Next(); ok {
		t.Fatal("subscription alive after CloseAll")
	}
}

func TestSubscribeDisplacesPrevious(t *testing.T) {
	h := NewHub()
	s1 := h.Subscribe(1, 4)
	h.Deliver(1, row(1))
	s2 := h.Subscribe(1, 4) // same id: the older subscription is displaced
	// The displaced consumer drains what it had, then sees the reason.
	if _, ok := s1.Next(); !ok {
		t.Fatal("displaced subscription lost its buffered row")
	}
	if _, ok := s1.Next(); ok {
		t.Fatal("displaced subscription still live")
	}
	if !errors.Is(s1.Err(), ErrDisplaced) {
		t.Fatalf("displaced err = %v", s1.Err())
	}
	// New rows flow to the replacement, not the ghost.
	h.Deliver(1, row(2))
	got, ok := s2.Next()
	if !ok || got.Values[0].I != 2 {
		t.Fatalf("replacement got %v %v", got, ok)
	}
}

func TestFailThenDrainOrdering(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(1, 8)
	sp := h.SpoolFor(1, 8)
	for i := 0; i < 3; i++ {
		h.Deliver(1, row(int64(i)))
	}
	boom := errors.New("operator quarantined")
	h.Fail(1, boom)
	// Every row delivered before the failure drains in order first...
	for i := 0; i < 3; i++ {
		got, ok := sub.Next()
		if !ok || got.Values[0].I != int64(i) {
			t.Fatalf("drain row %d: %v %v", i, got, ok)
		}
	}
	// ...then the terminal error is observed.
	if _, ok := sub.Next(); ok {
		t.Fatal("read past failure")
	}
	if !errors.Is(sub.Err(), boom) || !errors.Is(sp.Err(), boom) {
		t.Fatalf("errs: sub=%v spool=%v", sub.Err(), sp.Err())
	}
	// Producers racing past the failure neither panic nor leak: the row
	// is recycled and counted, not enqueued into the sealed queue.
	before := sub.Dropped()
	h.Deliver(1, row(99))
	if sub.Dropped() != before+1 {
		t.Fatalf("post-fail delivery not counted: %d -> %d", before, sub.Dropped())
	}
}

func TestSpoolFetchIntoAtBaseBoundary(t *testing.T) {
	sp := NewSpool(5)
	for i := 0; i < 12; i++ {
		sp.Append(row(int64(i)))
	}
	if sp.Base() != 7 || sp.End() != 12 {
		t.Fatalf("base=%d end=%d", sp.Base(), sp.End())
	}
	buf := make([]byte, 0, 64)
	// Exactly at the base: no clamp, rows 7..9.
	text, n, next := sp.FetchInto(buf, 7, 3)
	if string(text) != lines(7, 10) || n != 3 || next != 10 {
		t.Fatalf("at base: %q (%d) next %d", text, n, next)
	}
	// Below the base (aged out): clamps forward to the oldest retained
	// row, and next reflects the clamp so callers can detect the gap.
	text, n, next = sp.FetchInto(buf, 2, 3)
	if string(text) != lines(7, 10) || n != 3 || next != 10 {
		t.Fatalf("below base: %q (%d) next %d", text, n, next)
	}
	// At the end: empty, next stays put.
	text, n, next = sp.FetchInto(buf, 12, 3)
	if len(text) != 0 || n != 0 || next != 12 {
		t.Fatalf("at end: %q (%d) next %d", text, n, next)
	}
	// A zero limit is a no-op, not a spin hazard.
	text, n, next = sp.FetchInto(nil, 7, 0)
	if len(text) != 0 || n != 0 || next != 7 {
		t.Fatalf("zero limit: %q (%d) next %d", text, n, next)
	}
}

func TestSpoolFetchIntoDoesNotAllocate(t *testing.T) {
	sp := NewSpool(64)
	for i := 0; i < 64; i++ {
		sp.Append(row(int64(i)))
	}
	buf := make([]byte, 0, 256)
	var from int64
	allocs := testing.AllocsPerRun(100, func() {
		var n int
		_, n, from = sp.FetchInto(buf, from, 16)
		if n == 0 || from >= sp.End() {
			from = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("FetchInto allocates %v per call", allocs)
	}
}

// TestDeliverBatchIntoFullSpoolDoesNotAllocate delivers into a spool
// that is already at capacity, with no subscriber: the Hub encodes the
// batch into the spool's log, which compacts in place, and retires the
// rows. Retained rows make Recycle a no-op, so the same batch can be
// delivered every run.
func TestDeliverBatchIntoFullSpoolDoesNotAllocate(t *testing.T) {
	h := NewHub()
	sp := h.SpoolFor(1, 64)
	wide := tuple.NewSchema(
		tuple.Column{Source: "s", Name: "i", Kind: tuple.KindInt},
		tuple.Column{Source: "s", Name: "f", Kind: tuple.KindFloat},
		tuple.Column{Source: "s", Name: "s", Kind: tuple.KindString},
		tuple.Column{Source: "s", Name: "n", Kind: tuple.KindNull},
		tuple.Column{Source: "s", Name: "t", Kind: tuple.KindTime},
	)
	batch := make([]*tuple.Tuple, 16)
	for i := range batch {
		batch[i] = tuple.New(wide, tuple.Int(int64(i)), tuple.Float(float64(i)/8),
			tuple.String("v"), tuple.Null(), tuple.Time(time.Unix(int64(i), 5)))
		batch[i].Retain()
	}
	for sp.End() < 4*64 {
		h.DeliverBatch(1, batch)
	}
	allocs := testing.AllocsPerRun(100, func() { h.DeliverBatch(1, batch) })
	if allocs != 0 {
		t.Fatalf("DeliverBatch into a full spool allocates %v per call", allocs)
	}
	if sp.End()-sp.Base() != 64 {
		t.Fatalf("spool holds %d rows, want its capacity 64", sp.End()-sp.Base())
	}
}

var modelSchema = tuple.NewSchema(
	tuple.Column{Source: "m", Name: "i", Kind: tuple.KindInt},
	tuple.Column{Source: "m", Name: "f", Kind: tuple.KindFloat},
	tuple.Column{Source: "m", Name: "s", Kind: tuple.KindString},
	tuple.Column{Source: "m", Name: "t", Kind: tuple.KindTime},
)

// modelRow draws one row over every value kind, NULLs included, from
// the program's bytes.
func modelRow(next func() int, seq int64) *tuple.Tuple {
	vals := []tuple.Value{
		tuple.Int(seq*1000 - int64(next())),
		tuple.Float(float64(int8(next())) / 8),
		tuple.String(strings.Repeat("ab,", next()%4)),
		tuple.Time(time.Unix(int64(next())*86400, int64(next())*1e6)),
	}
	for i := range vals {
		if next()%5 == 0 {
			vals[i] = tuple.Null()
		}
	}
	r := tuple.NewPooled(modelSchema)
	r.Values = append(r.Values, vals...)
	return r
}

// checkSpoolAgainstModel drives a spool with the appends and fetches a
// byte program encodes and compares every result with a []string model
// of the logged lines: the first byte picks the capacity (1..64); each
// step appends a batch (empty, or longer than the capacity) and fetches
// from below the base, at it, inside the range, at the end and past it.
func checkSpoolAgainstModel(t *testing.T, prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	capacity := 1 + next()%64
	sp := NewSpool(capacity)
	var model []string // every line ever logged; offsets index it
	join := func(from, to int64) string { return strings.Join(model[from:to], "") }
	for step := 0; len(prog) > 0; step++ {
		batch := make([]*tuple.Tuple, next()%(2*capacity+2))
		var want strings.Builder
		for i := range batch {
			batch[i] = modelRow(next, int64(len(model)))
			line := batch[i].String() + "\n"
			model = append(model, line)
			want.WriteString(line)
		}
		text, end := sp.AppendBatch(batch)
		for _, r := range batch {
			tuple.Recycle(r) // the spool keeps text only
		}
		total := int64(len(model))
		base := total - int64(capacity)
		if base < 0 {
			base = 0
		}
		if string(text) != want.String() || end != total {
			t.Fatalf("step %d: append returned %q end %d, want %q end %d", step, text, end, want.String(), total)
		}
		if sp.Base() != base || sp.End() != total {
			t.Fatalf("step %d: base %d end %d, want %d %d", step, sp.Base(), sp.End(), base, total)
		}
		for _, from := range []int64{
			base - 1 - int64(next()), base, base + int64(next())%(total-base+1), total, total + 1 + int64(next()),
		} {
			f := from
			if f < base {
				f = base
			}
			if f > total {
				f = total
			}
			text, n, nxt := sp.Fetch(from)
			if string(text) != join(f, total) || n != int(total-f) || nxt != total {
				t.Fatalf("step %d: Fetch(%d) = %q (%d) next %d, want %q (%d) next %d",
					step, from, text, n, nxt, join(f, total), total-f, total)
			}
			limit := next()%(capacity+2) - 1
			to, wantNext := f, f
			if limit > 0 {
				to = f + int64(limit)
				if to > total {
					to = total
				}
				wantNext = to
			} else {
				wantNext = from
			}
			text, n, nxt = sp.FetchInto([]byte("dst:"), from, limit)
			if string(text) != "dst:"+join(f, to) || n != int(to-f) || nxt != wantNext {
				t.Fatalf("step %d: FetchInto(%d, limit %d) = %q (%d) next %d, want %q (%d) next %d",
					step, from, limit, text, n, nxt, "dst:"+join(f, to), to-f, wantNext)
			}
		}
	}
}

func TestSpoolAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 1+rng.Intn(400))
		rng.Read(prog)
		checkSpoolAgainstModel(t, prog)
	}
}

func FuzzSpoolAgainstModel(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2})
	f.Add([]byte{4, 200, 7, 7, 7, 0, 0, 9, 130, 1, 1, 1, 1})
	f.Add([]byte{63, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			return // keep each input's work bounded
		}
		checkSpoolAgainstModel(t, prog)
	})
}
