// Package server wires the TelegraphCQ process structure of Figure 5: a
// Postmaster accepting client connections, FrontEnd sessions that parse
// and plan statements and stream results back over multiplexed cursors
// (the proxy lets one connection hold many cursors), the shared Executor,
// and a Wrapper ingress port where push sources deliver data.
//
// Wire protocol (text lines over TCP):
//
//	client → server:  <SQL statement> ;           (may span lines)
//	                  SUBSCRIBE <cursor> [WITH (...)] ;  (join a standing query's fan-out)
//	                  SUBSCRIBE SELECT ... [WITH (...)] ; (submit + join)
//	                  CLOSE <cursor> ;
//	                  FETCH <cursor> <offset> ;   (pull/spool cursors)
//	server → client:  ok <text>
//	                  cursor <id> push|spool
//	                  row <id> <comma-separated values>
//	                  rows <id> <count> <nextOffset>
//	                  fail <id> <message>   (query died; done follows)
//	                  done <id>
//	                  error <message>
//
// Wrapper port: one CSV line per tuple, "stream,field,field,...".
package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/fanout"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/plan"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/telemetry"
	"telegraphcq/internal/tuple"
)

// Server is the TelegraphCQ daemon.
type Server struct {
	Cat  *catalog.Catalog
	Exec *executor.Executor
	// Sources supervises the server's outbound (push-client, pull)
	// wrappers; its health snapshots feed the tcq_sources system stream
	// and the tcq_source_* metrics.
	Sources *ingress.Registry

	wrapper *ingress.PushServer
	lnFront net.Listener
	metrics *http.Server
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// New builds a server around a catalog and executor options. When
// opts.Chaos is set, the wrapper port injects the same fault schedule
// as the executor (tcqd -chaos).
func New(opts executor.Options) *Server {
	cat := catalog.New()
	s := &Server{
		Cat:     cat,
		Exec:    executor.New(cat, opts),
		Sources: ingress.NewRegistry(),
		conns:   map[net.Conn]struct{}{},
	}
	s.wrapper = ingress.NewPushServer(func(stream string, vals []tuple.Value) error {
		_, err := s.Exec.Push(stream, vals)
		return err
	})
	s.wrapper.Chaos = opts.Chaos
	s.Exec.SetSourceStats(func() []executor.SourceStat {
		snaps := s.Sources.Snapshots()
		out := make([]executor.SourceStat, len(snaps))
		for i, sn := range snaps {
			out[i] = executor.SourceStat{
				Name:     sn.Name,
				State:    sn.State,
				Restarts: sn.Restarts,
				Failures: sn.Failures,
				Rows:     sn.Rows,
				LastErr:  sn.LastErr,
			}
		}
		return out
	})
	return s
}

// Start listens on the FrontEnd and Wrapper addresses (use port :0 to
// pick free ports) and returns the bound addresses.
func (s *Server) Start(frontAddr, wrapperAddr string) (front, wrapper string, err error) {
	ln, err := net.Listen("tcp", frontAddr)
	if err != nil {
		return "", "", err
	}
	s.lnFront = ln
	wrapper, err = s.wrapper.Listen(wrapperAddr)
	if err != nil {
		ln.Close()
		return "", "", err
	}
	s.wg.Add(1)
	go s.postmaster()
	return ln.Addr().String(), wrapper, nil
}

// StartMetrics serves the telemetry endpoints (/metrics Prometheus
// text, /statz JSON, /healthz) on addr; returns the bound address.
func (s *Server) StartMetrics(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.metrics = &http.Server{Handler: s.Exec.Metrics().Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.metrics.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// postmaster accepts connections and forks a FrontEnd session for each
// (the fork-per-connection model of Figure 4, with goroutines for
// processes).
func (s *Server) postmaster() {
	defer s.wg.Done()
	for {
		conn, err := s.lnFront.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			sess := &session{srv: s, conn: conn}
			sess.run()
		}()
	}
}

// Close shuts down listeners, sessions, and the executor.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Session goroutines block reading their client's socket; a daemon
	// that cannot exit until every client hangs up is not shut-downable,
	// so sever the connections here.
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if s.lnFront != nil {
		s.lnFront.Close()
	}
	if s.metrics != nil {
		s.metrics.Close()
	}
	s.Sources.StopAll()
	s.wrapper.Close()
	s.Exec.Close()
	s.wg.Wait()
}

// Drain is the graceful variant of Close (SIGINT/SIGTERM in tcqd):
// ingress stops first (supervised sources, then the wrapper port, so no
// new data enters), then a Barrier flushes every in-flight tuple through
// the EOs to subscribers, then the server closes. If the barrier does
// not complete within timeout the shutdown proceeds anyway — a stuck
// drain must not wedge process exit.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	s.Sources.StopAll()
	s.wrapper.Close()
	deadline := time.Now().Add(timeout)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Exec.Barrier()
	}()
	select {
	case <-done:
		// The barrier put every in-flight tuple into subscription queues;
		// now let the session pumps write them to the wire before the
		// connections are severed. Stop when the queues are empty — or
		// when they stop making progress (a disconnected PSoup client's
		// orphaned subscription will never drain; don't wait for it).
		stalled := 0
		last := -1
		for time.Now().Before(deadline) && stalled < 50 {
			queued := 0
			for _, sub := range s.Exec.Hub().Subscriptions() {
				queued += sub.Len()
			}
			for _, tr := range s.Exec.FanoutTrees() {
				queued += tr.Pending()
			}
			if queued == 0 {
				break
			}
			if queued == last {
				stalled++
			} else {
				stalled = 0
				last = queued
			}
			time.Sleep(time.Millisecond)
		}
	case <-time.After(time.Until(deadline)):
	}
	s.Close()
}

// --------------------------------------------------------------- session

type session struct {
	srv  *Server
	conn net.Conn
	wmu  sync.Mutex // serializes writes from pump goroutines
	pubs sync.WaitGroup
	subs map[int]*cursorState // cursor id → pump state
}

// cursorState is one open cursor's session-side bookkeeping. owned
// marks cursors whose CLOSE cancels the query itself (a plain SELECT,
// or the submitting SUBSCRIBE SELECT); a SUBSCRIBE that merely joined a
// standing query's fan-out detaches without killing the query for
// everyone else.
type cursorState struct {
	stop  func()
	owned bool
}

func (c *session) run() {
	defer c.conn.Close()
	c.subs = map[int]*cursorState{}
	defer func() {
		for _, cs := range c.subs {
			cs.stop()
		}
		c.pubs.Wait()
	}()
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var stmt strings.Builder
	for sc.Scan() {
		line := sc.Text()
		// Accumulate until an unquoted ';'.
		stmt.WriteString(line)
		stmt.WriteByte('\n')
		if !endsStatement(stmt.String()) {
			continue
		}
		text := strings.TrimSpace(stmt.String())
		stmt.Reset()
		text = strings.TrimSuffix(text, ";")
		if strings.TrimSpace(text) == "" {
			continue
		}
		c.dispatch(text)
	}
}

// endsStatement reports whether the buffered text ends with a ';'
// outside string literals.
func endsStatement(s string) bool {
	inStr := false
	last := byte(0)
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch == '\'' {
			inStr = !inStr
		}
		if !inStr && ch == ';' {
			last = ';'
		} else if !isSpace(ch) {
			last = ch
		}
	}
	return last == ';' && !inStr
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

func (c *session) send(format string, args ...any) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	fmt.Fprintf(c.conn, format+"\n", args...)
}

func (c *session) sendErr(err error) {
	c.send("error %s", strings.ReplaceAll(err.Error(), "\n", " "))
}

func (c *session) dispatch(text string) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return
	}
	switch strings.ToUpper(fields[0]) {
	case "CLOSE":
		c.closeCursor(fields)
		return
	case "FETCH":
		c.fetch(fields)
		return
	}
	st, err := sql.Parse(text)
	if err != nil {
		c.sendErr(err)
		return
	}
	src, err := plan.ApplyDDL(c.srv.Cat, st)
	if err != nil {
		c.sendErr(err)
		return
	}
	switch stmt := st.(type) {
	case *sql.CreateStream:
		c.srv.wrapper.Register(stmt.Name, src.Schema)
		c.send("ok created stream %s", stmt.Name)
	case *sql.CreateTable:
		c.send("ok created table %s", stmt.Name)
	case *sql.Insert:
		c.send("ok inserted %d", len(stmt.Rows))
	case *sql.DropSource:
		c.send("ok dropped %s", stmt.Name)
	case *sql.Select:
		c.openCursor(stmt)
	case *sql.Subscribe:
		c.openFanout(stmt)
	case *sql.ShowStats:
		c.showStats(stmt)
	default:
		c.sendErr(fmt.Errorf("server: unsupported statement"))
	}
}

// showStats dumps the telemetry registry as "row -1 <metric line>"
// entries (Prometheus text syntax per row) followed by "ok stats <n>".
// The continuous counterpart is a CQ over the tcq_* system streams.
func (c *session) showStats(stmt *sql.ShowStats) {
	samples := c.srv.Exec.Metrics().Gather()
	n := 0
	for i := range samples {
		if stmt.Like != "" && !strings.HasPrefix(samples[i].Name, stmt.Like) {
			continue
		}
		c.send("row -1 %s", strings.TrimSuffix(telemetry.PrometheusLine(&samples[i]), "\n"))
		n++
	}
	c.send("ok stats %d", n)
}

// openCursor submits a continuous query and pumps its results to the
// client as "row <id> ..." lines until closed.
func (c *session) openCursor(stmt *sql.Select) {
	id, sub, err := c.srv.Exec.Submit(stmt)
	if err != nil {
		c.sendErr(err)
		return
	}
	// Also spool so FETCH works for disconnected retrieval.
	c.srv.Exec.Hub().SpoolFor(id, 0)
	c.send("cursor %d push", id)
	c.pump(id, sub)
}

// pump registers a plain cursor and streams its subscription to the
// client as "row <id> ..." lines until the query ends or the cursor is
// stopped (CLOSE, or the session ending).
func (c *session) pump(id int, sub *egress.Subscription) {
	stopped := make(chan struct{})
	c.subs[id] = &cursorState{stop: func() { close(stopped) }, owned: true}
	c.pubs.Add(1)
	go func() {
		defer c.pubs.Done()
		for {
			row, ok := sub.NextOr(stopped)
			if !ok {
				// A quarantined query closes its subscription with a
				// terminal error; tell the client why before done.
				if err := sub.Err(); err != nil {
					c.send("fail %d %s", id, strings.ReplaceAll(err.Error(), "\n", " "))
				}
				c.send("done %d", id)
				return
			}
			select {
			case <-stopped:
				tuple.Recycle(row) // taken after stop: retired unsent
				return
			default:
			}
			c.send("row %d %s", id, row.String())
			// The consumer retires rows it has written to the wire (a
			// no-op for rows the spool retained).
			tuple.Recycle(row)
		}
	}()
}

// openFanout attaches this session to a query's fan-out tree
// (SUBSCRIBE <id> / SUBSCRIBE SELECT ...) and pumps shared pre-encoded
// frames to the client. Unlike openCursor's per-row fmt.Fprintf, the
// pump writes frame bytes verbatim: the serialization ran once per
// delivered batch, query-wide, no matter how many sessions subscribe.
func (c *session) openFanout(stmt *sql.Subscribe) {
	opts := fanout.SubOptions{}
	if w := stmt.With; w != nil {
		pol, err := fjord.ParseOverflowPolicy(w.Overflow)
		if err != nil {
			c.sendErr(err)
			return
		}
		opts.QoS = fjord.QoS{
			Policy:       pol,
			SampleP:      w.SampleP,
			BlockTimeout: time.Duration(w.TimeoutMs) * time.Millisecond,
		}
		opts.Cohort = w.Cohort
		opts.Queue = int(w.Queue)
		opts.Replay = w.Replay
	}
	var (
		id  int
		sub *fanout.Subscriber
		err error
	)
	if stmt.Sel != nil {
		id, sub, err = c.srv.Exec.SubmitFanout(stmt.Sel, opts)
	} else {
		id = int(stmt.Query)
		sub, err = c.srv.Exec.SubscribeFanout(id, opts)
	}
	if err != nil {
		c.sendErr(err)
		return
	}
	if old, ok := c.subs[id]; ok {
		old.stop() // one cursor id per session; displace the older pump
	}
	c.send("cursor %d push", id)
	// Closing the subscriber wakes a pump blocked in NextFrame.
	c.subs[id] = &cursorState{stop: sub.Close, owned: stmt.Sel != nil}
	c.pubs.Add(1)
	go func() {
		defer c.pubs.Done()
		for {
			f, ok := sub.NextFrame()
			if !ok {
				if !sub.Closed() { // the query ended, not the client
					if err := sub.Err(); err != nil {
						c.send("fail %d %s", id, strings.ReplaceAll(err.Error(), "\n", " "))
					}
				}
				c.send("done %d", id)
				sub.Close() // release anything racing in; idempotent
				return
			}
			c.wmu.Lock()
			_, _ = c.conn.Write(f.Bytes())
			c.wmu.Unlock()
			f.Release()
		}
	}()
}

func (c *session) closeCursor(fields []string) {
	if len(fields) != 2 {
		c.sendErr(fmt.Errorf("usage: CLOSE <cursor>"))
		return
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		c.sendErr(err)
		return
	}
	owned := true // CLOSE on a cursor this session never opened cancels (legacy behavior)
	if cs, ok := c.subs[id]; ok {
		cs.stop()
		owned = cs.owned
		delete(c.subs, id)
	}
	if !owned {
		// A joined fan-out cursor detaches without cancelling the query
		// other subscribers still read.
		c.send("ok closed %d", id)
		return
	}
	if err := c.srv.Exec.Cancel(id); err != nil {
		c.sendErr(err)
		return
	}
	c.send("ok closed %d", id)
}

func (c *session) fetch(fields []string) {
	if len(fields) != 3 {
		c.sendErr(fmt.Errorf("usage: FETCH <cursor> <offset>"))
		return
	}
	id, err1 := strconv.Atoi(fields[1])
	off, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil {
		c.sendErr(fmt.Errorf("bad FETCH arguments"))
		return
	}
	sp := c.srv.Exec.Hub().SpoolFor(id, 0)
	rows, next := sp.Fetch(off)
	c.send("rows %d %d %d", id, len(rows), next)
	for _, r := range rows {
		c.send("row %d %s", id, r.String())
	}
}
