package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/egress"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/tuple"
)

var schema = tuple.NewSchema(tuple.Column{Source: "s", Name: "v", Kind: tuple.KindInt})

func row(v int64) *tuple.Tuple { return tuple.New(schema, tuple.Int(v)) }

// line is the delivered text of row(v), as the Hub hands it on.
func line(v int64) []byte { return egress.AppendLines(nil, egress.Rows{row(v)}) }

// deliver does what the Hub does for one row of a query with a spool:
// log its text, then publish that text with the new end offset.
func deliver(tr *Tree, sp *egress.Spool, v int64) {
	text, end := sp.Append(row(v))
	tr.PublishText(text, 1, end)
}

// drainRows consumes frames until the subscriber has seen want distinct
// row keys (parsed from the wire bytes), failing on duplicates.
func drainRows(t *testing.T, sub *Subscriber, want int) map[int64]bool {
	t.Helper()
	seen := map[int64]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(seen) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: saw %d of %d rows", len(seen), want)
		}
		f, ok := sub.NextFrame()
		if !ok {
			t.Fatalf("subscriber ended early: saw %d of %d rows (err=%v)", len(seen), want, sub.Err())
		}
		for _, k := range frameKeys(t, f) {
			if seen[k] {
				t.Fatalf("row %d delivered twice", k)
			}
			seen[k] = true
		}
		f.Release()
	}
	return seen
}

// frameKeys parses "row <q> <v>" wire lines back into row keys.
func frameKeys(t *testing.T, f *Frame) []int64 {
	t.Helper()
	var keys []int64
	for _, line := range strings.Split(strings.TrimSuffix(string(f.Bytes()), "\n"), "\n") {
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 || parts[0] != "row" {
			t.Fatalf("malformed wire line %q", line)
		}
		k, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			t.Fatalf("bad row key in %q: %v", line, err)
		}
		keys = append(keys, k)
	}
	return keys
}

func TestEncodeOnceSharedFrames(t *testing.T) {
	tr := NewTree(Options{Query: 7, Prefix: "row 7 "})
	defer tr.Close()
	const nsubs, nframes = 8, 5
	subs := make([]*Subscriber, nsubs)
	for i := range subs {
		s, err := tr.Attach(SubOptions{Queue: 16})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	for i := 0; i < nframes; i++ {
		tr.PublishText(line(int64(i)), 1, 0)
	}
	for _, s := range subs {
		for i := 0; i < nframes; i++ {
			f, ok := s.NextFrame()
			if !ok {
				t.Fatal("missing frame")
			}
			if got := string(f.Bytes()); got != fmt.Sprintf("row 7 %d\n", i) {
				t.Fatalf("frame %d = %q", i, got)
			}
			f.Release()
		}
	}
	// The serialization ran once per published batch, not once per
	// subscriber delivery.
	if tr.Encoder().LiveEncodes() != nframes {
		t.Fatalf("encodes = %d, want %d", tr.Encoder().LiveEncodes(), nframes)
	}
	st := tr.Stats()
	if st.Offered != nsubs*nframes || st.Consumed != nsubs*nframes {
		t.Fatalf("offered=%d consumed=%d, want %d", st.Offered, st.Consumed, nsubs*nframes)
	}
}

func TestPublishSkippedWithNoSubscribers(t *testing.T) {
	tr := NewTree(Options{Query: 1, Prefix: "row 1 "})
	defer tr.Close()
	tr.PublishText(line(1), 1, 0)
	st := tr.Stats()
	if st.Published != 0 || st.SkippedIdle != 1 || tr.Encoder().LiveEncodes() != 0 {
		t.Fatalf("idle publish not skipped: %+v encodes=%d", st, tr.Encoder().LiveEncodes())
	}
}

func TestTreeGrowsRelaysAndLeaves(t *testing.T) {
	// Degree 2, LeafCap 2: capacity = 2 relays x 2 leaves x 2 subs = 8.
	tr := NewTree(Options{Query: 1, Prefix: "row 1 ", Degree: 2, LeafCap: 2, StageQueue: 8, SubQueue: 16})
	defer tr.Close()
	subs := make([]*Subscriber, 8)
	for i := range subs {
		s, err := tr.Attach(SubOptions{})
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		subs[i] = s
	}
	if _, err := tr.Attach(SubOptions{}); !errors.Is(err, ErrFull) {
		t.Fatalf("9th attach: %v, want ErrFull", err)
	}
	st := tr.Stats()
	if st.Stages != 1+2+4 { // root + 2 relays + 4 leaves
		t.Fatalf("stages = %d, want 7", st.Stages)
	}
	const nframes = 10
	for i := 0; i < nframes; i++ {
		tr.PublishText(line(int64(i)), 1, 0)
	}
	// Every subscriber on every leaf sees every frame, in order.
	for si, s := range subs {
		for i := 0; i < nframes; i++ {
			f, ok := s.NextFrame()
			if !ok {
				t.Fatalf("sub %d missing frame %d", si, i)
			}
			if keys := frameKeys(t, f); len(keys) != 1 || keys[0] != int64(i) {
				t.Fatalf("sub %d frame %d = %v", si, i, keys)
			}
			f.Release()
		}
	}
}

func TestReplayCatchUpFromSpool(t *testing.T) {
	sp := egress.NewSpool(100)
	tr := NewTree(Options{Query: 1, Prefix: "row 1 ", Spool: sp})
	defer tr.Close()
	// History accumulates with no subscribers attached (frames skipped).
	for i := 0; i < 10; i++ {
		deliver(tr, sp, int64(i))
	}
	late, err := tr.Attach(SubOptions{Replay: true, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	seen := drainRows(t, late, 10)
	for i := int64(0); i < 10; i++ {
		if !seen[i] {
			t.Fatalf("replay missed row %d", i)
		}
	}
	ss := late.Stats()
	if ss.Replayed == 0 || ss.Consumed != 0 {
		t.Fatalf("stats after pure replay: %+v", ss)
	}
	// Replay then live: new rows arrive as live frames, no duplicates.
	deliver(tr, sp, 10)
	f, ok := late.NextFrame()
	if !ok {
		t.Fatal("live frame after replay lost")
	}
	if keys := frameKeys(t, f); len(keys) != 1 || keys[0] != 10 {
		t.Fatalf("live frame = %v", keys)
	}
	f.Release()
}

// TestReplayAgedOutWindowStopsAtLiveRows lets rows age out of a small
// spool between attach and the first replay fetch: the fetch clamps
// forward to the base and reads past the replay window, and the rows
// past it must be left to live delivery — each row seen once.
func TestReplayAgedOutWindowStopsAtLiveRows(t *testing.T) {
	sp := egress.NewSpool(4)
	tr := NewTree(Options{Query: 1, Prefix: "row 1 ", Spool: sp})
	defer tr.Close()
	for i := 0; i < 10; i++ {
		deliver(tr, sp, int64(i))
	}
	late, err := tr.Attach(SubOptions{Replay: true, Queue: 16}) // window [6, 10)
	if err != nil {
		t.Fatal(err)
	}
	deliver(tr, sp, 10) // rows 6 and 7 age out; 10 and 11 arrive live
	deliver(tr, sp, 11)
	deadline := time.Now().Add(10 * time.Second)
	for st := late.Stats(); st.Pending < 2; st = late.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("live frames never queued: %+v", st)
		}
		runtime.Gosched()
	}
	var got []int64
	for {
		f, ok := late.TryNextFrame()
		if !ok {
			break
		}
		got = append(got, frameKeys(t, f)...)
		f.Release()
	}
	if fmt.Sprint(got) != "[8 9 10 11]" {
		t.Fatalf("rows = %v, want [8 9 10 11]", got)
	}
}

// TestPublishRowsMatchesText checks that publishing rows gives the frame
// their delivered text gives.
func TestPublishRowsMatchesText(t *testing.T) {
	tr := NewTree(Options{Query: 3, Prefix: "row 3 "})
	defer tr.Close()
	sub, err := tr.Attach(SubOptions{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr.Publish(egress.Rows{row(1), row(2)}, 0)
	tr.PublishText(append(line(1), line(2)...), 2, 0)
	var frames []string
	for i := 0; i < 2; i++ {
		f, ok := sub.NextFrame()
		if !ok {
			t.Fatal("missing frame")
		}
		frames = append(frames, string(f.Bytes()))
		f.Release()
	}
	if frames[0] != "row 3 1\nrow 3 2\n" || frames[1] != frames[0] {
		t.Fatalf("frames = %q", frames)
	}
}

func TestCohortSharedCursor(t *testing.T) {
	sp := egress.NewSpool(100)
	tr := NewTree(Options{Query: 1, Prefix: "row 1 ", Spool: sp})
	defer tr.Close()
	for i := 0; i < 10; i++ {
		deliver(tr, sp, int64(i))
	}
	m1, err := tr.Attach(SubOptions{Cohort: "dash", Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	drainRows(t, m1, 10)
	cohorts := tr.Cohorts()
	if len(cohorts) != 1 || cohorts[0].Cursor() != 10 {
		t.Fatalf("cohort cursor: %+v", cohorts)
	}
	// A second member joins after the cohort consumed the history: it
	// resumes at the shared cursor instead of re-replaying from base.
	m2, err := tr.Attach(SubOptions{Cohort: "dash", Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.TryNextFrame(); ok {
		t.Fatal("second member re-replayed consumed history")
	}
	if ss := m2.Stats(); ss.Replayed != 0 {
		t.Fatalf("second member replayed %d frames", ss.Replayed)
	}
	// New rows flow to both members.
	deliver(tr, sp, 10)
	for _, m := range []*Subscriber{m1, m2} {
		f, ok := m.NextFrame()
		if !ok {
			t.Fatal("cohort member missed live row")
		}
		f.Release()
	}
}

// TestReplayNoLossNoDupUnderConcurrentAttach races subscriber attach
// (with replay) against a live publisher and checks the exactly-once
// window-stitch invariant: every row is either replayed from the spool
// or delivered live, never both, never neither.
func TestReplayNoLossNoDupUnderConcurrentAttach(t *testing.T) {
	const rows, nsubs = 400, 12
	sp := egress.NewSpool(4096)
	tr := NewTree(Options{Query: 1, Prefix: "row 1 ", Spool: sp})
	defer tr.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			deliver(tr, sp, int64(i))
		}
	}()

	results := make(chan map[int64]bool, nsubs)
	for i := 0; i < nsubs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Lossless edge so the invariant is exactly-once, not
			// at-most-once: block with a generous bound.
			sub, err := tr.Attach(SubOptions{
				Replay: true,
				Queue:  64,
				QoS:    fjord.QoS{Policy: fjord.Block, BlockTimeout: 10 * time.Second},
			})
			if err != nil {
				t.Error(err)
				return
			}
			seen := drainRows(t, sub, rows)
			// Detach once done: a finished member that lingers would
			// stall the leaf's Block offers into its full ring.
			sub.Close()
			results <- seen
		}()
	}
	wg.Wait()
	close(results)
	for seen := range results {
		for i := int64(0); i < rows; i++ {
			if !seen[i] {
				t.Fatalf("row %d lost", i)
			}
		}
	}
}

func TestReconciliationPerPolicy(t *testing.T) {
	policies := []fjord.QoS{
		{Policy: fjord.DropNewest},
		{Policy: fjord.DropOldest},
		{Policy: fjord.Block, BlockTimeout: time.Millisecond},
		{Policy: fjord.Sample, SampleP: 0.5},
	}
	for _, qos := range policies {
		qos := qos
		t.Run(qos.Policy.String(), func(t *testing.T) {
			tr := NewTree(Options{Query: 1, Prefix: "row 1 "})
			const nsubs, nframes = 16, 300
			subs := make([]*Subscriber, nsubs)
			for i := range subs {
				s, err := tr.Attach(SubOptions{QoS: qos, Queue: 8})
				if err != nil {
					t.Fatal(err)
				}
				subs[i] = s
			}
			var wg sync.WaitGroup
			// Half the fleet consumes eagerly; half sits idle so drop
			// policies actually shed. A few close mid-stream (churn).
			for i, s := range subs {
				if i%2 != 0 {
					continue
				}
				wg.Add(1)
				go func(i int, s *Subscriber) {
					defer wg.Done()
					n := 0
					for {
						f, ok := s.NextFrame()
						if !ok {
							return
						}
						f.Release()
						if n++; n == 50 && i%4 == 0 {
							s.Close() // churn: leave mid-stream
							return
						}
					}
				}(i, s)
			}
			for i := 0; i < nframes; i++ {
				tr.PublishText(line(int64(i)), 1, 0)
			}
			tr.Close() // cascade: drains stage rings, closes sub rings
			wg.Wait()
			for _, s := range subs {
				s.Close() // count any still-buffered frames as shed
			}
			st := tr.Stats()
			if st.Offered == 0 {
				t.Fatal("nothing offered")
			}
			if got := st.Consumed + st.Dedup + st.Shed; got != st.Offered {
				t.Fatalf("offered=%d != consumed+dedup+shed=%d (%+v)", st.Offered, got, st)
			}
			if st.Pending != 0 {
				t.Fatalf("pending=%d after close", st.Pending)
			}
		})
	}
}

func TestTreeFailSurfacesError(t *testing.T) {
	tr := NewTree(Options{Query: 1, Prefix: "row 1 "})
	sub, err := tr.Attach(SubOptions{Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.PublishText(line(1), 1, 0)
	boom := errors.New("quarantined")
	tr.Fail(boom)
	// Buffered frames drain before the error is observed.
	f, ok := sub.NextFrame()
	if !ok {
		t.Fatalf("buffered frame lost at fail (err=%v)", sub.Err())
	}
	f.Release()
	if _, ok := sub.NextFrame(); ok {
		t.Fatal("frame after fail")
	}
	if !errors.Is(sub.Err(), boom) {
		t.Fatalf("err = %v", sub.Err())
	}
}

func TestFrameRefcountReleasesToPool(t *testing.T) {
	enc := NewEncoder("row 1 ")
	f := enc.frame(line(42), 1, 0, 1, false)
	f.Retain()
	f.Release()
	f.Release() // final: returns to pool
	defer func() {
		if recover() == nil {
			t.Fatal("over-release not caught")
		}
	}()
	f.Release()
}
