package server

import (
	"bufio"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"telegraphcq/internal/egress"
	"telegraphcq/internal/tuple"
)

// pumpRig is one plain-cursor pump on a session whose client end is the
// far side of an in-memory pipe, fed straight from a Hub subscription
// with no spool, so every row it is handed is the pump's to retire.
type pumpRig struct {
	hub    *egress.Hub
	sub    *egress.Subscription
	sess   *session
	client net.Conn
	lines  *bufio.Reader
	schema *tuple.Schema
}

const pumpID = 7

func newPumpRig(t *testing.T, capacity int) *pumpRig {
	t.Helper()
	server, client := net.Pipe()
	r := &pumpRig{
		hub:    egress.NewHub(),
		sess:   &session{conn: server, subs: map[int]*cursorState{}},
		client: client,
		lines:  bufio.NewReader(client),
		schema: tuple.NewSchema(tuple.Column{Source: "s", Name: "v", Kind: tuple.KindInt}),
	}
	r.sub = r.hub.Subscribe(pumpID, capacity)
	r.sess.pump(pumpID, r.sub)
	t.Cleanup(func() {
		server.Close()
		client.Close()
	})
	return r
}

func (r *pumpRig) row(v int) *tuple.Tuple {
	t := tuple.NewPooled(r.schema)
	t.Values = append(t.Values, tuple.Int(int64(v)))
	return t
}

// TestPlainCursorTrickleParksWithoutHelperGoroutines trickles 2 000 rows
// one at a time through a plain cursor, so the pump parks on an empty
// ring before nearly every row. Parking must not start a goroutine per
// wait, and stopping a parked pump must not strand one: the query is
// still standing (a client that disconnects leaves it running), so
// nothing would ever wake a helper blocked on the ring.
func TestPlainCursorTrickleParksWithoutHelperGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newPumpRig(t, 64)
	for i := 0; i < 2000; i++ {
		r.hub.Deliver(pumpID, r.row(i))
		line, err := r.lines.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if want := "row " + strconv.Itoa(pumpID) + " " + strconv.Itoa(i) + "\n"; line != want {
			t.Fatalf("line %d = %q, want %q", i, line, want)
		}
	}
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Fatalf("%d goroutines after the trickle, %d before the cursor opened", g, base)
	}
	// Let the pump get back to waiting on the empty ring, so the stop
	// below finds it parked.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	r.sess.subs[pumpID].stop()
	r.client.Close() // the client hangs up; nobody cancels the query
	r.sess.pubs.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pump stopped, %d before the cursor opened", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestCloseRacingDeliveriesRetiresEveryRow stops a plain cursor (CLOSE)
// while rows are still being delivered to it. Rows are paced one behind
// the client, so the pump is usually parked on an empty ring when the
// stop lands and the next delivery races it. Every row must end retired
// exactly once: written and recycled by the pump, recycled unsent by the
// pump when it took the row after the stop, recycled by the Hub when
// shed or refused, or left in the ring for the subscription's next
// owner. Under -tags tcqdebug a recycled tuple is poisoned, which is how
// this test tells that a row was retired; a row retired twice panics in
// tuple.Recycle.
func TestCloseRacingDeliveriesRetiresEveryRow(t *testing.T) {
	const n, closeAt = 2000, 200
	r := newPumpRig(t, 16)
	rows := make([]*tuple.Tuple, n)
	for i := range rows {
		rows[i] = r.row(i)
	}

	var got atomic.Int64
	reached := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // the client: count rows until the pipe closes
		defer close(readerDone)
		for {
			line, err := r.lines.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "row ") && got.Add(1) == closeAt {
				close(reached)
			}
		}
	}()
	var closed atomic.Bool
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		for i, row := range rows {
			r.hub.Deliver(pumpID, row)
			for !closed.Load() && got.Load() <= int64(i) {
				runtime.Gosched()
			}
		}
	}()

	<-reached
	r.sess.subs[pumpID].stop() // CLOSE: stop the pump, then cancel
	closed.Store(true)
	<-delivered
	r.hub.Close(pumpID)
	r.client.Close()
	r.sess.pubs.Wait()
	<-readerDone
	// The pump has exited, so the test owns the ring's consumer end.
	for row, ok := r.sub.TryNext(); ok; row, ok = r.sub.TryNext() {
		tuple.Recycle(row)
	}
	if !tuple.PoisonEnabled {
		t.Skip("retirement is observable only with -tags tcqdebug")
	}
	for i, row := range rows {
		if row.Schema != nil {
			t.Fatalf("row %d of %d was never retired (%d written)", i, n, got.Load())
		}
	}
}
