package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/executor"
	"telegraphcq/internal/tuple"
)

// wireSession is a front-end session on an in-memory pipe whose server
// end counts writes; its replies arrive line by line on lines.
type wireSession struct {
	sess  *session
	conn  *countingConn
	lines chan string
}

func newWireSession(t *testing.T, s *Server) *wireSession {
	t.Helper()
	server, client := net.Pipe()
	w := &wireSession{
		conn: &countingConn{Conn: server},
		// Room for every line a test reads, so a pump never blocks on
		// a slow reader.
		lines: make(chan string, 1024),
	}
	w.sess = &session{srv: s, conn: w.conn, subs: map[int]*cursorState{}}
	go func() {
		defer close(w.lines)
		r := bufio.NewReader(client)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			w.lines <- line
		}
	}()
	t.Cleanup(func() {
		for _, cs := range w.sess.subs {
			cs.stop()
		}
		client.Close()
		server.Close()
		w.sess.pubs.Wait()
	})
	return w
}

// read returns the next n reply lines, concatenated.
func (w *wireSession) read(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case line, ok := <-w.lines:
			if !ok {
				t.Fatalf("session closed after %d of %d lines: %q", i, n, b.String())
			}
			b.WriteString(line)
		case <-deadline:
			t.Fatalf("timeout after %d of %d lines: %q", i, n, b.String())
		}
	}
	return b.String()
}

// TestCursorFetchAndReplayBytesMatchRowString sends rows holding NULL,
// float, string and time values through one cursor and checks that the
// live plain-cursor lines, the FETCH reply and a replay catch-up frame
// all carry "row <id> " + Tuple.String() + "\n" per row, and that the
// FETCH reply leaves in one write.
func TestCursorFetchAndReplayBytesMatchRowString(t *testing.T) {
	s := New(executor.Options{})
	t.Cleanup(s.Close)
	owner := newWireSession(t, s)
	owner.sess.dispatch("CREATE STREAM w (n int, f float, s string, t time)")
	if got := owner.read(t, 1); got != "ok created stream w\n" {
		t.Fatalf("create: %q", got)
	}
	owner.sess.dispatch("SELECT n, f, s, t FROM w")
	var id int
	if _, err := fmt.Sscanf(owner.read(t, 1), "cursor %d push\n", &id); err != nil {
		t.Fatal(err)
	}

	schema := tuple.NewSchema(
		tuple.Column{Name: "n", Kind: tuple.KindInt},
		tuple.Column{Name: "f", Kind: tuple.KindFloat},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "t", Kind: tuple.KindTime},
	)
	rows := [][]tuple.Value{
		{tuple.Int(1), tuple.Float(0.1), tuple.String("a b"), tuple.Time(time.Date(2024, 2, 29, 23, 59, 59, 123456789, time.UTC))},
		{tuple.Null(), tuple.Float(-2.5e-9), tuple.String(""), tuple.Time(time.Unix(0, 0))},
		{tuple.Int(-3), tuple.Null(), tuple.Null(), tuple.Null()},
		{tuple.Int(4), tuple.Float(1e21), tuple.String("x,y"), tuple.Time(time.Unix(1700000000, 1000).In(time.FixedZone("X", 3600)))},
	}
	var want strings.Builder
	for _, vals := range rows {
		if _, err := s.Exec.Push("w", vals); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "row %d %s\n", id, tuple.New(schema, vals...).String())
	}
	if err := s.Exec.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := owner.read(t, len(rows)); got != want.String() {
		t.Fatalf("live lines differ:\ngot  %q\nwant %q", got, want.String())
	}

	before := owner.conn.writes.Load()
	owner.sess.dispatch(fmt.Sprintf("FETCH %d 0", id))
	wantFetch := fmt.Sprintf("rows %d %d %d\n", id, len(rows), len(rows)) + want.String()
	if got := owner.read(t, 1+len(rows)); got != wantFetch {
		t.Fatalf("FETCH reply differs:\ngot  %q\nwant %q", got, wantFetch)
	}
	if w := owner.conn.writes.Load() - before; w != 1 {
		t.Fatalf("FETCH reply took %d writes, want 1", w)
	}

	late := newWireSession(t, s)
	late.sess.dispatch(fmt.Sprintf("SUBSCRIBE %d WITH (replay = true)", id))
	if got := late.read(t, 1); got != fmt.Sprintf("cursor %d push\n", id) {
		t.Fatalf("subscribe: %q", got)
	}
	if got := late.read(t, len(rows)); got != want.String() {
		t.Fatalf("replay frame differs:\ngot  %q\nwant %q", got, want.String())
	}
}

// FETCH on an id with no spool — never issued, or already CLOSEd —
// replies error and creates no Hub route.
func TestFetchUnknownOrClosedCursorErrors(t *testing.T) {
	s := New(executor.Options{})
	t.Cleanup(s.Close)
	w := newWireSession(t, s)
	w.sess.dispatch("CREATE STREAM f (n int)")
	w.read(t, 1)
	w.sess.dispatch("SELECT n FROM f")
	var id int
	if _, err := fmt.Sscanf(w.read(t, 1), "cursor %d push\n", &id); err != nil {
		t.Fatal(err)
	}
	w.sess.dispatch(fmt.Sprintf("CLOSE %d", id))
	if got := w.read(t, 2); got != fmt.Sprintf("done %d\nok closed %d\n", id, id) &&
		got != fmt.Sprintf("ok closed %d\ndone %d\n", id, id) {
		t.Fatalf("close: %q", got)
	}
	routes := s.Exec.Hub().Routes()
	for i := 0; i < 1001; i++ {
		fetchID := id
		if i > 0 {
			fetchID = 1000 + i
		}
		w.sess.dispatch(fmt.Sprintf("FETCH %d 0", fetchID))
		if got := w.read(t, 1); !strings.HasPrefix(got, "error ") {
			t.Fatalf("FETCH %d 0 replied %q, want error", fetchID, got)
		}
	}
	if got := s.Exec.Hub().Routes(); got != routes {
		t.Fatalf("Hub routes %d after the FETCHes, want %d", got, routes)
	}
}
