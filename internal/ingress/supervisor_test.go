package ingress

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
)

// fastBackoff keeps supervisor tests quick and deterministic.
func fastBackoff() Backoff {
	return Backoff{
		Initial:      time.Millisecond,
		Max:          5 * time.Millisecond,
		Factor:       2,
		Jitter:       0.1,
		HealthyAfter: time.Hour, // never auto-reset inside a test
		Seed:         42,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorRestartsUntilClean(t *testing.T) {
	var attempts atomic.Int64
	s := NewSupervisor("src", func(stop <-chan struct{}) error {
		if attempts.Add(1) < 4 {
			return errors.New("connection refused")
		}
		return nil // fourth attempt completes cleanly
	}, fastBackoff())
	s.Start()
	waitFor(t, "clean completion", func() bool {
		return attempts.Load() == 4 && s.State() == HealthDown
	})
	snap := s.Snapshot()
	if attempts.Load() != 4 {
		t.Fatalf("attempts=%d, want 4", attempts.Load())
	}
	if snap.Restarts != 3 || snap.Failures != 3 {
		t.Fatalf("restarts=%d failures=%d, want 3/3", snap.Restarts, snap.Failures)
	}
	if !strings.Contains(snap.LastErr, "connection refused") {
		t.Fatalf("lastErr=%q", snap.LastErr)
	}
	s.Stop()
}

func TestSupervisorBudgetExhaustion(t *testing.T) {
	b := fastBackoff()
	b.Budget = 3
	var attempts atomic.Int64
	s := NewSupervisor("src", func(stop <-chan struct{}) error {
		attempts.Add(1)
		return errors.New("boom")
	}, b)
	s.Start()
	waitFor(t, "budget exhaustion", func() bool {
		return attempts.Load() >= 3 && s.State() == HealthDown
	})
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts=%d, want 3", got)
	}
	snap := s.Snapshot()
	if !strings.Contains(snap.LastErr, "retry budget exhausted") {
		t.Fatalf("lastErr=%q", snap.LastErr)
	}
	s.Stop()
}

func TestSupervisorDegradedBetweenAttempts(t *testing.T) {
	b := fastBackoff()
	b.Initial = 50 * time.Millisecond
	b.Max = 50 * time.Millisecond
	s := NewSupervisor("src", func(stop <-chan struct{}) error {
		return errors.New("flaky")
	}, b)
	s.Start()
	waitFor(t, "degraded state", func() bool { return s.State() == HealthDegraded })
	s.Stop()
	if s.State() != HealthDown {
		t.Fatalf("state after Stop: %v", s.State())
	}
}

func TestSupervisorStopInterruptsRun(t *testing.T) {
	started := make(chan struct{})
	s := NewSupervisor("src", func(stop <-chan struct{}) error {
		close(started)
		<-stop // a blocking read interrupted by Stop
		return errors.New("interrupted")
	}, fastBackoff())
	s.Start()
	<-started
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt a blocked run")
	}
}

func TestRegistrySnapshotsAndStopAll(t *testing.T) {
	r := NewRegistry()
	block := func(stop <-chan struct{}) error { <-stop; return errors.New("stopped") }
	r.Supervise("a", block, fastBackoff())
	r.Supervise("b", block, fastBackoff())
	waitFor(t, "both up", func() bool {
		ss := r.Snapshots()
		return len(ss) == 2 && ss[0].State == "up" && ss[1].State == "up"
	})
	r.StopAll()
	for _, snap := range r.Snapshots() {
		if snap.State != "down" {
			t.Fatalf("source %s state=%s after StopAll", snap.Name, snap.State)
		}
	}
}

// TestSupervisedPushClientReconnects is the wrapper-level integration:
// a chaotic remote source that drops every connection after a few rows,
// a supervised PushClient that reconnects each time. Rows keep flowing
// across the drops and restarts are observable in the snapshot.
func TestSupervisedPushClientReconnects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Remote source: each accepted connection sends 5 rows (one corrupt)
	// and hangs up mid-stream — the paper's volatile network.
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			for j := 0; j < 5; j++ {
				if j == 2 {
					fmt.Fprintln(conn, "GARBAGE;;;")
				} else {
					fmt.Fprintf(conn, "S%d,%d.5,%d,true\n", i, j, j)
				}
			}
			conn.Close()
		}
	}()

	var m memSink
	pc := &PushClient{Stream: "s", Schema: schema}
	sup := NewSupervisor("s", func(stop <-chan struct{}) error {
		n, err := pc.Run(ln.Addr().String(), m.sink)
		pcRows := n
		_ = pcRows
		if err == nil {
			// The remote hung up: that is a failure to be retried, not a
			// clean end of stream.
			err = errors.New("source disconnected")
		}
		return err
	}, fastBackoff())
	stopCh := make(chan struct{})
	go func() { <-stopCh; pc.Stop() }()
	sup.Start()

	waitFor(t, "rows across reconnects", func() bool { return m.count() >= 12 })
	close(stopCh)
	sup.Stop()
	snap := sup.Snapshot()
	if snap.Restarts < 2 {
		t.Fatalf("restarts=%d, want >=2 (reconnects)", snap.Restarts)
	}
	if pc.BadRows() < 1 {
		t.Fatalf("badRows=%d, want >=1 (corrupt line skipped, not fatal)", pc.BadRows())
	}
}

// TestPushServerChaos drives the push-server with an injector that
// corrupts and disconnects: the server must survive, count rejects, and
// keep accepting fresh connections.
func TestPushServerChaos(t *testing.T) {
	var m memSink
	s := NewPushServer(m.batch)
	s.Chaos = chaos.New(chaos.Config{Seed: 7, Corrupt: 0.3, Disconnect: 0.05})
	s.Register("s", schema)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sent := 0
	for conn := 0; conn < 5; conn++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			fmt.Fprintf(c, "s,SYM,%d.5,%d,true\n", i, i)
			sent++
		}
		c.Close()
	}
	// Under corruption some lines are rejected and some connections are
	// cut early; the server itself must stay up and deliver the rest.
	waitFor(t, "chaos rows settle", func() bool {
		return s.Rows()+s.Errs() > 0 && m.count() == int(s.Rows())
	})
	time.Sleep(50 * time.Millisecond)
	if s.Rows() == 0 {
		t.Fatal("no rows survived chaos")
	}
	if s.Errs() == 0 {
		t.Fatal("corruption produced no rejects — injector not wired?")
	}
	if got := s.Chaos.Stats(); got.Corrupted == 0 {
		t.Fatalf("injector stats: %+v", got)
	}
}
