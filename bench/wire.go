package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// clock reads nanoseconds since the run began, off the monotonic clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// ------------------------------------------------------------- FrontEnd

// reply is the one line that answers a statement ("ok ...", "cursor N
// push", "error ..."), with the SHOW STATS rows that preceded it, if any.
type reply struct {
	text  string
	at    int64
	stats []string
}

type pendKind uint8

const (
	pendSync       pendKind = iota // someone waits on ch
	pendChurnOpen                  // a churn selection's submit
	pendChurnClose                 // a churn selection's CLOSE
)

type pend struct {
	kind pendKind
	sent int64
	ch   chan reply
	j    int // churn index
}

// session is the one FrontEnd connection: every cursor of the run is
// multiplexed on it. A single reader goroutine timestamps each line as it
// arrives and keeps the bytes; result rows are judged after the run, so
// the hot loop only has to spot marker rows and statement replies.
type session struct {
	conn net.Conn
	clk  clock

	// Reader-owned until done is closed.
	arena   []byte
	lineEnd []uint32 // offset of each line's '\n'
	recvAt  []int64  // when the read that completed the line returned
	stats   []string
	ackAt   []int64     // ackAt[b] = when block b's marker result arrived
	churnOf map[int]int // cursor id -> churn index
	submits []int64     // churn submit -> cursor ack, ns

	marker   atomic.Int64 // cursor id of the marker query, -1 until known
	acked    atomic.Int64 // input rows acknowledged: last marker id + 1
	ackCh    chan struct{}
	lastRecv atomic.Int64
	bytesIn  atomic.Int64
	rowsIn   atomic.Int64
	reads    atomic.Int64
	failures atomic.Int64 // "fail" lines and refused churn statements
	toClose  chan int     // churn cursors acknowledged and not yet closed

	mu   sync.Mutex // orders pend against the bytes on the wire
	pend []pend

	done chan struct{}
	err  error
}

func dialSession(addr string, clk clock, arenaHint int) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial frontend: %w", err)
	}
	s := &session{
		conn:    conn,
		clk:     clk,
		arena:   make([]byte, 0, arenaHint),
		churnOf: map[int]int{},
		ackCh:   make(chan struct{}, 1),
		// One slot per churn selection that can be open at once, with room
		// to spare: the sender closes each 100 ms after it opened.
		toClose: make(chan int, 64),
		done:    make(chan struct{}),
	}
	s.marker.Store(-1)
	go s.read()
	return s, nil
}

func (s *session) read() {
	defer close(s.done)
	lineStart := 0
	for {
		if len(s.arena) == cap(s.arena) {
			grown := make([]byte, len(s.arena), 2*cap(s.arena)+1<<16)
			copy(grown, s.arena)
			s.arena = grown
		}
		n, err := s.conn.Read(s.arena[len(s.arena):cap(s.arena)])
		at := s.clk.now()
		scanFrom := len(s.arena)
		s.arena = s.arena[:len(s.arena)+n]
		if n > 0 {
			s.reads.Add(1)
			s.bytesIn.Add(int64(n))
			s.lastRecv.Store(at)
		}
		for {
			i := bytes.IndexByte(s.arena[scanFrom:], '\n')
			if i < 0 {
				break
			}
			end := scanFrom + i
			s.line(s.arena[lineStart:end], at)
			s.lineEnd = append(s.lineEnd, uint32(end))
			s.recvAt = append(s.recvAt, at)
			lineStart, scanFrom = end+1, end+1
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.err = err
			}
			return
		}
	}
}

// rowCursor parses "row <cursor> <payload>"; ok is false for any other
// line. SHOW STATS rows carry cursor -1.
func rowCursor(b []byte) (cursor int, payload []byte, ok bool) {
	if len(b) < 6 || string(b[:4]) != "row " {
		return 0, nil, false
	}
	j := 4
	neg := b[j] == '-'
	if neg {
		j++
	}
	for ; j < len(b) && b[j] != ' '; j++ {
		if b[j] < '0' || b[j] > '9' {
			return 0, nil, false
		}
		cursor = cursor*10 + int(b[j]-'0')
	}
	if j >= len(b) {
		return 0, nil, false
	}
	if neg {
		cursor = -cursor
	}
	return cursor, b[j+1:], true
}

func (s *session) line(b []byte, at int64) {
	if cur, payload, ok := rowCursor(b); ok {
		switch {
		case cur < 0:
			s.stats = append(s.stats, string(payload))
		case int64(cur) == s.marker.Load():
			s.rowsIn.Add(1)
			if id, ok := atoi(payload); ok {
				for len(s.ackAt) <= id/blockRows {
					s.ackAt = append(s.ackAt, at)
				}
				s.acked.Store(int64(id) + 1)
				select {
				case s.ackCh <- struct{}{}:
				default:
				}
			}
		default:
			s.rowsIn.Add(1)
		}
		return
	}
	text := string(b)
	if strings.HasPrefix(text, "done ") {
		return
	}
	if strings.HasPrefix(text, "fail ") {
		s.failures.Add(1)
		return
	}
	s.mu.Lock()
	if len(s.pend) == 0 {
		s.mu.Unlock()
		s.failures.Add(1) // a reply nobody asked for
		return
	}
	p := s.pend[0]
	s.pend = s.pend[1:]
	s.mu.Unlock()
	switch p.kind {
	case pendSync:
		p.ch <- reply{text: text, at: at, stats: s.stats}
		s.stats = nil
	case pendChurnOpen:
		var id int
		if _, err := fmt.Sscanf(text, "cursor %d push", &id); err != nil {
			s.failures.Add(1)
			return
		}
		s.churnOf[id] = p.j
		s.submits = append(s.submits, at-p.sent)
		select {
		case s.toClose <- id:
		default:
			s.failures.Add(1) // the sender stopped closing what it opened
		}
	case pendChurnClose:
		if !strings.HasPrefix(text, "ok closed") {
			s.failures.Add(1)
		}
	}
}

// send writes statements and queues what to do with their replies, in
// one critical section so that reply order and queue order agree.
func (s *session) send(stmts []string, ps []pend) error {
	var b strings.Builder
	for _, st := range stmts {
		b.WriteString(st)
		b.WriteString(";\n")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pend = append(s.pend, ps...)
	_, err := io.WriteString(s.conn, b.String())
	return err
}

// execAll pipelines statements and returns their replies in order.
func (s *session) execAll(stmts []string) ([]reply, error) {
	ps := make([]pend, len(stmts))
	for i := range ps {
		ps[i] = pend{kind: pendSync, ch: make(chan reply, 1)}
	}
	if err := s.send(stmts, ps); err != nil {
		return nil, err
	}
	out := make([]reply, len(stmts))
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for i := range ps {
		select {
		case out[i] = <-ps[i].ch:
		case <-s.done:
			return nil, fmt.Errorf("frontend connection closed awaiting reply to %q (%v)", stmts[i], s.err)
		case <-timeout.C:
			return nil, fmt.Errorf("no reply to %q within 30s", stmts[i])
		}
		if strings.HasPrefix(out[i].text, "error") {
			return nil, fmt.Errorf("%q: %s", stmts[i], out[i].text)
		}
	}
	return out, nil
}

func (s *session) exec(stmt string) (reply, error) {
	r, err := s.execAll([]string{stmt})
	if err != nil {
		return reply{}, err
	}
	return r[0], nil
}

// lines visits every received line with its receive time. Only valid
// after close.
func (s *session) lines(visit func(line []byte, at int64)) {
	start := 0
	for k, end := range s.lineEnd {
		visit(s.arena[start:end], s.recvAt[k])
		start = int(end) + 1
	}
}

// close hangs up and waits for the reader to finish.
func (s *session) close() {
	s.conn.Close()
	<-s.done
}

// -------------------------------------------------------------- Wrapper

// wrapperConn is the one Wrapper connection. The daemon is silent on it
// unless it rejects a line, so the reader only counts "error" replies.
type wrapperConn struct {
	conn     net.Conn
	rejected atomic.Int64
	done     chan struct{}
}

func dialWrapper(addr string) (*wrapperConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial wrapper: %w", err)
	}
	w := &wrapperConn{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			w.rejected.Add(int64(bytes.Count(buf[:n], []byte("\n"))))
			if err != nil {
				return
			}
		}
	}()
	return w, nil
}

func (w *wrapperConn) close() {
	w.conn.Close()
	<-w.done
}

// ---------------------------------------------------------------- pacer

// pacerTick is how long the paced sender sleeps between looks at the
// clock. Rows due within one tick go out in one write; a shorter tick
// would spend the generator's core on wake-ups it shares with the daemon.
const pacerTick = 50 * time.Microsecond

// nap sleeps on the kernel's high-resolution timer. time.Sleep will not
// do: the Go runtime parks in epoll_wait, whose timeout counts whole
// milliseconds, so every sub-millisecond sleep comes back after ~1.1 ms
// and the generator would run a millisecond late on average.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only means one more look at the clock
}

// pacer is the one sender: it owns the Wrapper connection's write side
// and records when each row was handed to it.
type pacer struct {
	w      io.Writer
	in     *input
	clk    clock
	sentAt []int64
}

// dueAt is when row i of an open-loop phase that starts at t0 with row
// from is due.
func dueAt(i, from int, t0 int64, rate float64) int64 {
	return t0 + int64(float64(i-from)*1e9/rate)
}

// paced sends rows [from,to) open loop: row i is due at dueAt(i) and goes
// out at the first wake-up at or after that, never before and never held
// back because the daemon is slow. between runs once per idle wake-up.
//
// paced pins itself to a thread for the phase, so that it can sleep on
// the kernel's timer and pre-empt the daemon it shares the box with, and
// hands the thread back as it found it.
func (p *pacer) paced(from, to int, t0 int64, rate float64, between func(now int64) error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const (
		schedOther = 0
		schedFIFO  = 1
	)
	setSched := func(policy, prio int) syscall.Errno {
		param := struct{ prio int32 }{int32(prio)}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
		return e
	}
	// A thread's sleeps are rounded up by its timer slack, 50 us by
	// default; ask for the least the kernel allows (0 restores the default).
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 0, 0)
	// A sender that waits its turn behind the daemon's threads runs a
	// millisecond late one time in a hundred. It needs microseconds of CPU
	// per wake-up, so let it pre-empt: SCHED_FIFO when permitted, else a
	// negative nice value.
	if setSched(schedFIFO, 1) == 0 {
		defer setSched(schedOther, 0)
	} else if syscall.Setpriority(syscall.PRIO_PROCESS, 0, -10) == nil {
		defer syscall.Setpriority(syscall.PRIO_PROCESS, 0, 0)
	}
	next := from
	for next < to {
		now := p.clk.now()
		due := from
		if now >= t0 {
			due = from + int(float64(now-t0)*rate/1e9) + 1
		}
		if due > to {
			due = to
		}
		if due > next {
			for i := next; i < due; i++ {
				p.sentAt[i] = now
			}
			if _, err := p.w.Write(p.in.buf[p.in.off[next]:p.in.off[due]]); err != nil {
				return fmt.Errorf("wrapper write: %w", err)
			}
			next = due
			continue // the write may have taken a while: look at the clock again
		}
		if between != nil {
			if err := between(now); err != nil {
				return err
			}
		}
		wait := time.Duration(dueAt(next, from, t0, rate) - now)
		if wait < pacerTick {
			wait = pacerTick
		}
		nap(wait)
	}
	return nil
}

// floodStall is how long flood waits for the window to open with no
// marker acknowledged before it gives up: the daemon died or lost a marker
// row, and no write is due that could report it.
const floodStall = 10 * time.Second

// flood sends rows [from,to) as fast as the socket takes them, a closed
// loop with a window: at most floodWindow rows past the last one the
// daemon acknowledged are ever outstanding. It returns the time spent
// inside socket writes, which is TCP back-pressure from the Wrapper's read
// loop; nearly all the rest of a flood is spent waiting for the window. It
// fails when the FrontEnd connection (done) closes, or nothing is
// acknowledged for floodStall, while the window is shut.
func (p *pacer) flood(from, to int, acked func() int, ackCh, done <-chan struct{}) (blocked int64, err error) {
	poll := time.NewTimer(time.Hour)
	defer poll.Stop()
	next := from
	lastAcked, lastAckAt := acked(), p.clk.now()
	for next < to {
		t := p.clk.now()
		a := acked()
		if a != lastAcked {
			lastAcked, lastAckAt = a, t
		}
		limit := a + floodWindow
		if limit > to {
			limit = to
		}
		if next >= limit {
			if t-lastAckAt > int64(floodStall) {
				return blocked, fmt.Errorf("daemon acknowledged %d of %d rows sent and then nothing for %v", a, next, floodStall)
			}
			poll.Reset(time.Millisecond)
			select {
			case <-ackCh:
				if !poll.Stop() {
					<-poll.C
				}
			case <-done:
				return blocked, fmt.Errorf("frontend connection lost at %d of %d rows acknowledged", acked(), next)
			case <-poll.C:
			}
			continue
		}
		end := next - next%blockRows + blockRows
		if end > limit {
			end = limit
		}
		for i := next; i < end; i++ {
			p.sentAt[i] = t
		}
		if _, err := p.w.Write(p.in.buf[p.in.off[next]:p.in.off[end]]); err != nil {
			return blocked, fmt.Errorf("wrapper write: %w", err)
		}
		blocked += p.clk.now() - t
		next = end
	}
	return blocked, nil
}
