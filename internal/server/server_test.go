package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/executor"
)

func startServer(t *testing.T) (*Server, string, string) {
	t.Helper()
	s := New(executor.Options{})
	front, wrapper, err := s.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, front, wrapper
}

func recvRows(t *testing.T, ch <-chan string, n int) []string {
	t.Helper()
	var out []string
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case r, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, r)
		case <-deadline:
			t.Fatalf("timeout: got %d of %d rows (%v)", len(out), n, out)
		}
	}
	return out
}

func TestEndToEndFilterQuery(t *testing.T) {
	_, front, wrapper := startServer(t)
	cli, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Exec(`CREATE STREAM stocks (sym string, price float)`); err != nil {
		t.Fatal(err)
	}
	_, rows, err := cli.Query(`SELECT sym, price FROM stocks WHERE price > 50`)
	if err != nil {
		t.Fatal(err)
	}

	push, err := DialPush(wrapper)
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close()
	_ = push.Push("stocks", "MSFT", "60")
	_ = push.Push("stocks", "IBM", "40")
	_ = push.Push("stocks", "MSFT", "70")
	_ = push.Flush()

	got := recvRows(t, rows, 2)
	if got[0] != "MSFT,60" || got[1] != "MSFT,70" {
		t.Fatalf("rows: %v", got)
	}
}

func TestDDLErrorsReported(t *testing.T) {
	_, front, _ := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	if err := cli.Exec(`CREATE STREAM s (a int)`); err != nil {
		t.Fatal(err)
	}
	if err := cli.Exec(`CREATE STREAM s (a int)`); err == nil {
		t.Fatal("duplicate stream accepted")
	}
	if err := cli.Exec(`SELECT FROM`); err == nil {
		t.Fatal("syntax error accepted")
	}
	if err := cli.Exec(`DROP STREAM nope`); err == nil {
		t.Fatal("drop unknown accepted")
	}
}

func TestInsertAndStreamTableJoin(t *testing.T) {
	_, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	for _, stmt := range []string{
		`CREATE STREAM trades (sym string, qty int)`,
		`CREATE TABLE companies (sym string, hq string)`,
		`INSERT INTO companies VALUES ('MSFT', 'Redmond'), ('IBM', 'Armonk')`,
	} {
		if err := cli.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	_, rows, err := cli.Query(`
		SELECT trades.sym, companies.hq, qty FROM trades, companies
		WHERE trades.sym = companies.sym`)
	if err != nil {
		t.Fatal(err)
	}
	push, _ := DialPush(wrapper)
	defer push.Close()
	_ = push.Push("trades", "IBM", "100")
	_ = push.Push("trades", "ORCL", "5")
	_ = push.Flush()
	got := recvRows(t, rows, 1)
	if got[0] != "IBM,Armonk,100" {
		t.Fatalf("rows: %v", got)
	}
}

func TestMultipleCursorsOneConnection(t *testing.T) {
	_, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	_ = cli.Exec(`CREATE STREAM s (v float)`)
	id1, rows1, err := cli.Query(`SELECT v FROM s WHERE v > 10`)
	if err != nil {
		t.Fatal(err)
	}
	id2, rows2, err := cli.Query(`SELECT v FROM s WHERE v > 20`)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("cursor ids collide")
	}
	push, _ := DialPush(wrapper)
	defer push.Close()
	for _, v := range []string{"5", "15", "25"} {
		_ = push.Push("s", v)
	}
	_ = push.Flush()
	r1 := recvRows(t, rows1, 2)
	r2 := recvRows(t, rows2, 1)
	if r1[0] != "15" || r1[1] != "25" || r2[0] != "25" {
		t.Fatalf("rows: %v / %v", r1, r2)
	}
}

func TestCloseCursorStopsRows(t *testing.T) {
	_, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	_ = cli.Exec(`CREATE STREAM s (v float)`)
	id, rows, _ := cli.Query(`SELECT v FROM s`)
	push, _ := DialPush(wrapper)
	defer push.Close()
	_ = push.Push("s", "1")
	_ = push.Flush()
	recvRows(t, rows, 1)
	if err := cli.CloseCursor(id); err != nil {
		t.Fatal(err)
	}
	_ = push.Push("s", "2")
	_ = push.Flush()
	time.Sleep(50 * time.Millisecond)
	select {
	case r, ok := <-rows:
		if ok {
			t.Fatalf("row after close: %q", r)
		}
	default:
	}
}

func TestFetchSpooledResults(t *testing.T) {
	// Disconnected operation: rows accumulate in the spool; the client
	// fetches on reconnect.
	_, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	_ = cli.Exec(`CREATE STREAM s (v float)`)
	id, _, err := cli.Query(`SELECT v FROM s WHERE v >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	push, _ := DialPush(wrapper)
	defer push.Close()
	for i := 0; i < 10; i++ {
		_ = push.Push("s", fmt.Sprintf("%d", i))
	}
	_ = push.Flush()
	// Poll the spool until all 10 rows landed.
	var rows []string
	var next int64
	deadline := time.Now().Add(5 * time.Second)
	for len(rows) < 10 && time.Now().Before(deadline) {
		got, n, err := cli.Fetch(id, next)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, got...)
		next = n
		time.Sleep(5 * time.Millisecond)
	}
	if len(rows) != 10 || rows[0] != "0" || rows[9] != "9" {
		t.Fatalf("fetched: %v", rows)
	}
	// Fetching from the end returns nothing new.
	got, _, err := cli.Fetch(id, next)
	if err != nil || len(got) != 0 {
		t.Fatalf("tail fetch: %v %v", got, err)
	}
}

func TestAggregateOverWire(t *testing.T) {
	_, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	_ = cli.Exec(`CREATE STREAM s (sym string, price float)`)
	_, rows, err := cli.Query(`
		SELECT avg(price) FROM s WHERE sym = 'MSFT'
		for (t = ST; ; t += 3) { WindowIs(s, t + 1, t + 3); }`)
	if err != nil {
		t.Fatal(err)
	}
	push, _ := DialPush(wrapper)
	defer push.Close()
	for i := 1; i <= 7; i++ {
		_ = push.Push("s", "MSFT", fmt.Sprintf("%d", i))
	}
	_ = push.Flush()
	got := recvRows(t, rows, 2)
	// Windows [1,3] avg 2 and [4,6] avg 5.
	if !strings.HasSuffix(got[0], ",2") || !strings.HasSuffix(got[1], ",5") {
		t.Fatalf("agg rows: %v", got)
	}
}

func TestWrapperRejectsMalformedLines(t *testing.T) {
	s, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	_ = cli.Exec(`CREATE STREAM s (v int)`)
	push, _ := DialPush(wrapper)
	defer push.Close()
	_ = push.Push("nostream", "1") // unknown stream
	_ = push.Push("s", "notanint") // parse error
	_ = push.Push("s", "42")       // fine
	_ = push.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for s.wrapperErrs() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.wrapperErrs() != 2 {
		t.Fatalf("wrapper errors = %d", s.wrapperErrs())
	}
}

func (s *Server) wrapperErrs() int64 { return s.wrapper.Errs() }

func TestWrapperErrorReplies(t *testing.T) {
	_, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	if err := cli.Exec(`CREATE STREAM s (v int)`); err != nil {
		t.Fatal(err)
	}
	push, _ := DialPush(wrapper)
	defer push.Close()

	_ = push.Push("nostream", "1")
	_ = push.Flush()
	msg, err := push.ReadError(2 * time.Second)
	if err != nil {
		t.Fatalf("no reply for unknown stream: %v", err)
	}
	if !strings.HasPrefix(msg, "error 1 ") || !strings.Contains(msg, `unknown stream "nostream"`) {
		t.Fatalf("unknown-stream reply = %q", msg)
	}

	_ = push.Push("s", "notanint")
	_ = push.Flush()
	msg, err = push.ReadError(2 * time.Second)
	if err != nil {
		t.Fatalf("no reply for malformed line: %v", err)
	}
	if !strings.HasPrefix(msg, "error 2 ") || !strings.Contains(msg, "column v") {
		t.Fatalf("parse-error reply = %q", msg)
	}

	// A valid line draws no reply.
	_ = push.Push("s", "42")
	_ = push.Flush()
	if msg, err := push.ReadError(150 * time.Millisecond); err == nil {
		t.Fatalf("unexpected reply for valid line: %q", msg)
	}
}

func TestShowStatsOverWire(t *testing.T) {
	s, front, wrapper := startServer(t)
	cli, _ := Dial(front)
	defer cli.Close()
	if err := cli.Exec(`CREATE STREAM s (v int)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Query(`SELECT v FROM s WHERE v > 0`); err != nil {
		t.Fatal(err)
	}
	push, _ := DialPush(wrapper)
	defer push.Close()
	for i := 1; i <= 5; i++ {
		_ = push.Push("s", fmt.Sprintf("%d", i))
	}
	_ = push.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for s.wrapper.Rows() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := s.Exec.Barrier(); err != nil {
		t.Fatal(err)
	}

	lines, err := cli.ShowStats("")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, l := range lines {
		name, _, _ := strings.Cut(l, "{")
		name, _, _ = strings.Cut(name, " ")
		found[name] = true
	}
	for _, want := range []string{"tcq_eos", "tcq_queries_active", "tcq_eddy_admitted_total", "tcq_module_routed_total"} {
		if !found[want] {
			t.Fatalf("SHOW STATS missing %s in %d lines", want, len(lines))
		}
	}

	// LIKE narrows to the prefix.
	lines, err = cli.ShowStats("tcq_eddy_")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("SHOW STATS LIKE 'tcq_eddy_' returned nothing")
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "tcq_eddy_") {
			t.Fatalf("LIKE filter leaked %q", l)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, front, _ := startServer(t)
	addr, err := s.StartMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := Dial(front)
	defer cli.Close()
	if err := cli.Exec(`CREATE STREAM s (v int)`); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"# TYPE tcq_eos gauge", "tcq_queries_active"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// The same listener serves the runtime profiles; a standing query
	// gives the goroutine profile an EO scheduler loop to name.
	if _, _, err := cli.Query(`SELECT v FROM s`); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "shardGroup).run") {
		t.Fatalf("/debug/pprof/goroutine: status %d, no EO loop in:\n%s", resp.StatusCode, body)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := New(executor.Options{})
	_, _, err := s.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
}

func TestSubscribeFanoutOverWire(t *testing.T) {
	_, front, wrapper := startServer(t)
	owner, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.Exec(`CREATE STREAM stocks (sym string, price float)`); err != nil {
		t.Fatal(err)
	}
	id, ownRows, err := owner.Query(`SUBSCRIBE SELECT sym, price FROM stocks WHERE price > 50`)
	if err != nil {
		t.Fatal(err)
	}

	// A second connection joins the standing query's fan-out by id.
	joiner, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	jid, joinRows, err := joiner.Query(fmt.Sprintf(`SUBSCRIBE %d WITH (overflow = 'block')`, id))
	if err != nil {
		t.Fatal(err)
	}
	if jid != id {
		t.Fatalf("joined cursor %d, want %d", jid, id)
	}

	push, err := DialPush(wrapper)
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close()
	_ = push.Push("stocks", "MSFT", "60")
	_ = push.Push("stocks", "IBM", "40")
	_ = push.Push("stocks", "MSFT", "70")
	_ = push.Flush()

	// Both sessions see the same shared-encoded rows.
	for name, ch := range map[string]<-chan string{"owner": ownRows, "joiner": joinRows} {
		got := recvRows(t, ch, 2)
		if got[0] != "MSFT,60" || got[1] != "MSFT,70" {
			t.Fatalf("%s rows: %v", name, got)
		}
	}

	// CLOSE on the joined cursor detaches that session only: the query
	// keeps running for the owner.
	if err := joiner.CloseCursor(id); err != nil {
		t.Fatal(err)
	}
	_ = push.Push("stocks", "GOOG", "90")
	_ = push.Flush()
	if got := recvRows(t, ownRows, 1); got[0] != "GOOG,90" {
		t.Fatalf("owner after joiner close: %v", got)
	}

	// CLOSE on the owning cursor cancels the query itself.
	if err := owner.CloseCursor(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := joiner.Query(fmt.Sprintf(`SUBSCRIBE %d`, id)); err == nil {
		t.Fatal("subscribed to a cancelled query")
	}
}

func TestSubscribeReplayOverWire(t *testing.T) {
	_, front, wrapper := startServer(t)
	owner, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if err := owner.Exec(`CREATE STREAM ticks (v int)`); err != nil {
		t.Fatal(err)
	}
	id, ownRows, err := owner.Query(`SUBSCRIBE SELECT v FROM ticks`)
	if err != nil {
		t.Fatal(err)
	}

	push, err := DialPush(wrapper)
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close()
	for i := 1; i <= 3; i++ {
		_ = push.Push("ticks", fmt.Sprintf("%d", i))
	}
	_ = push.Flush()
	recvRows(t, ownRows, 3) // history is delivered and spooled

	// A late joiner with replay catches up from the retained spool.
	late, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	_, lateRows, err := late.Query(fmt.Sprintf(`SUBSCRIBE %d WITH (replay = true)`, id))
	if err != nil {
		t.Fatal(err)
	}
	got := recvRows(t, lateRows, 3)
	for i, want := range []string{"1", "2", "3"} {
		if got[i] != want {
			t.Fatalf("replayed rows: %v", got)
		}
	}

	// And keeps receiving live rows after the catch-up.
	_ = push.Push("ticks", "4")
	_ = push.Flush()
	if got := recvRows(t, lateRows, 1); got[0] != "4" {
		t.Fatalf("live after replay: %v", got)
	}
}

func TestSubscribeUnknownQueryRejected(t *testing.T) {
	_, front, _ := startServer(t)
	cli, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.Query(`SUBSCRIBE 424242`); err == nil {
		t.Fatal("subscribe to unknown query succeeded")
	}
}

// The forced-exit path: an operator's second signal calls Close while
// Drain is still waiting on a backlog. The forced Close must sever live
// sessions — even one whose pump is wedged against a client that never
// reads — and let the pending Drain finish instead of wedging shutdown.
func TestDrainForcedCloseSeversLiveSessions(t *testing.T) {
	srv, front, wrapper := startServer(t)
	cli, err := Dial(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Exec(`CREATE STREAM s (payload string)`); err != nil {
		t.Fatal(err)
	}

	// A raw subscriber that opens a cursor and then never reads: its
	// session pump backs up against the TCP buffer, so the subscription
	// queue cannot drain on its own.
	raw, err := net.Dial("tcp", front)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintln(raw, "SELECT payload FROM s;")
	br := bufio.NewReader(raw)
	ack, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(ack, "cursor ") {
		t.Fatalf("cursor ack: %q %v", ack, err)
	}

	// Enough data to fill the socket buffers and leave a stuck backlog.
	push, err := DialPush(wrapper)
	if err != nil {
		t.Fatal(err)
	}
	defer push.Close()
	payload := strings.Repeat("x", 512)
	for i := 0; i < 16384; i++ {
		_ = push.Push("s", payload)
	}
	_ = push.Flush()
	queued := func() int {
		n := 0
		for _, sub := range srv.Exec.Hub().Subscriptions() {
			n += sub.Len()
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for queued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if queued() == 0 {
		t.Fatal("subscription backlog never formed")
	}

	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		srv.Drain(60 * time.Second)
	}()
	// Give Drain time to stop ingress and enter its wait loop; with the
	// backlog stuck it must still be pending when the force arrives.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-drainDone:
		t.Fatal("drain finished with a wedged subscriber backlog")
	default:
	}

	srv.Close() // second signal: force

	select {
	case <-drainDone:
	case <-time.After(10 * time.Second):
		t.Fatal("forced close did not unblock the pending drain")
	}
	// The wedged session was severed: the socket reaches EOF/reset even
	// though its queue never drained.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, raw); err != nil && !errors.Is(err, io.EOF) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("severed session still open after forced close")
		}
	}
	// And the control session is dead too: the next statement fails.
	if err := cli.Exec(`CREATE STREAM late (v float)`); err == nil {
		t.Fatal("statement succeeded on a force-closed server")
	}
}
