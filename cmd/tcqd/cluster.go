// Cluster roles: `tcqd -role=worker` runs one networked Flux node,
// `tcqd -role=coordinator` owns the shard map and exposes a line-based
// ingest front. With no -workers the coordinator folds locally — the
// single-process reference the kill-recovery harness compares against.
//
// Ingest protocol (one TCP connection, newline-delimited):
//
//	key,value      route one observation (no reply)
//	BARRIER        flush; replies "OK" or "ERR <reason>"
//	COLLECT        barrier + grouped result: "key count sum" lines, then "END"
//	STATS          one line of robustness counters
package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/cluster"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/telemetry"
)

// sink abstracts where routed entries go: a real coordinator or the
// local single-process fold.
type sink interface {
	Route(key string, val float64) error
	Barrier(timeout time.Duration) error
	Collect(timeout time.Duration) (cluster.BucketState, error)
	StatsLine() string
}

// coordSink adapts cluster.Coordinator to the ingest front.
type coordSink struct{ c *cluster.Coordinator }

func (s coordSink) Route(key string, val float64) error { return s.c.Route(key, val) }
func (s coordSink) Barrier(d time.Duration) error       { return s.c.Barrier(d) }
func (s coordSink) Collect(d time.Duration) (cluster.BucketState, error) {
	return s.c.Collect(d)
}
func (s coordSink) StatsLine() string {
	st := s.c.Stats()
	return fmt.Sprintf("routed=%d acked=%d retransmits=%d promotions=%d moves=%d repairs=%d lost=%d detect_ms=%d epoch=%d joins=%d rebalances=%d",
		st.Routed, st.Acked, st.Retransmits, st.Promotions, st.Moves, st.Repairs, st.BucketsLost,
		st.LastDetect.Milliseconds(), st.Epoch, st.Joins, st.RebalanceMovesSkew+st.RebalanceMovesJoin)
}

// localSink is the single-process reference: same ingest protocol, one
// in-memory fold.
type localSink struct {
	mu     sync.Mutex
	st     cluster.BucketState
	routed int64
}

func newLocalSink() *localSink { return &localSink{st: cluster.BucketState{}} }

func (s *localSink) Route(key string, val float64) error {
	s.mu.Lock()
	s.st.Fold(key, val)
	s.routed++
	s.mu.Unlock()
	return nil
}
func (s *localSink) Barrier(time.Duration) error { return nil }
func (s *localSink) Collect(time.Duration) (cluster.BucketState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Clone(), nil
}
func (s *localSink) StatsLine() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("routed=%d acked=%d retransmits=0 promotions=0 moves=0 repairs=0 lost=0 detect_ms=0 epoch=0 joins=0 rebalances=0",
		s.routed, s.routed)
}

// runWorker is the `-role=worker` main: one exchange listener, state in
// memory, runs until signaled. The exchange bind retries under backoff
// (a restarting node races its own port's TIME_WAIT), and with
// -coordinator set the worker registers itself — started before the
// coordinator exists, it converges instead of dying.
func runWorker(exchange, coordinator, name, chaosSpec string) int {
	w := cluster.NewWorker()
	if chaosSpec != "" {
		inj, err := chaos.Parse(chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -chaos spec: %v\n", err)
			return 2
		}
		w.SetChaos(inj)
		fmt.Printf("telegraphcq: CHAOS MODE %s\n", chaosSpec)
	}
	addr, err := listenWithRetry(w, exchange)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("telegraphcq: exchange on %s\n", addr)
	if coordinator != "" {
		if name == "" {
			name = addr
		}
		w.StartRegister(coordinator, name, ingress.Backoff{})
		fmt.Printf("telegraphcq: registering %q with coordinator %s\n", name, coordinator)
	}
	waitForSignal()
	w.Close()
	fmt.Println("telegraphcq: worker shut down")
	return 0
}

// listenWithRetry binds the exchange listener under the same supervised
// exponential backoff + jitter the source wrappers use; a held port (a
// predecessor draining, TIME_WAIT) is a transient fault, not a reason
// to exit.
func listenWithRetry(w *cluster.Worker, exchange string) (string, error) {
	var mu sync.Mutex
	var addr string
	done := make(chan struct{})
	sup := ingress.NewSupervisor("exchange-bind", func(stop <-chan struct{}) error {
		a, err := w.Listen(exchange)
		if err != nil {
			return err
		}
		mu.Lock()
		addr = a
		mu.Unlock()
		close(done)
		return nil // clean completion: the bind is held, supervision ends
	}, ingress.Backoff{Budget: 10})
	sup.Start()
	for {
		select {
		case <-done:
			mu.Lock()
			defer mu.Unlock()
			return addr, nil
		case <-time.After(50 * time.Millisecond):
			if sup.State() == ingress.HealthDown {
				select {
				case <-done: // bound succeeded just as supervision wound down
					mu.Lock()
					defer mu.Unlock()
					return addr, nil
				default:
					return "", fmt.Errorf("exchange bind %s: %s", exchange, sup.Snapshot().LastErr)
				}
			}
		}
	}
}

// runCoordinator is the `-role=coordinator` main: connect the worker
// fleet (statically dialed, journal-recovered, and/or self-registering
// through -listen — or fold locally with none of those), then serve the
// ingest front until signaled.
func runCoordinator(ingest, workersCSV, listen, journal string, buckets int, heartbeat time.Duration, metricsAddr string) int {
	var s sink
	var coord *cluster.Coordinator
	if workersCSV == "" && listen == "" && journal == "" {
		s = newLocalSink()
		fmt.Println("telegraphcq: coordinator in local-fold mode (no -workers)")
	} else {
		cfg := cluster.Config{
			Buckets:   buckets,
			Heartbeat: heartbeat,
			Listen:    listen,
			Journal:   journal,
		}
		if workersCSV != "" {
			cfg.Workers = strings.Split(workersCSV, ",")
		}
		var err error
		coord, err = cluster.NewCoordinator(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := coord.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		s = coordSink{coord}
		if ra := coord.RegistryAddr(); ra != "" {
			fmt.Printf("telegraphcq: registry on %s\n", ra)
		}
		fmt.Printf("telegraphcq: coordinating %d workers (epoch %d)\n", len(coord.NodeStates()), coord.Epoch())
	}

	if metricsAddr != "" && coord != nil {
		reg := telemetry.NewRegistry()
		coord.Register(reg)
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			coord.Close()
			return 1
		}
		defer ln.Close()
		go serveMetrics(ln, reg)
		fmt.Printf("telegraphcq: metrics on http://%s/metrics\n", ln.Addr())
	}

	ln, err := net.Listen("tcp", ingest)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if coord != nil {
			coord.Close()
		}
		return 1
	}
	fmt.Printf("telegraphcq: ingest on %s\n", ln.Addr())

	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveIngest(conn, s)
			}()
		}
	}()

	waitForSignal()
	ln.Close()
	// Flush what's in flight before leaving; bounded so a dead fleet
	// cannot wedge shutdown.
	if err := s.Barrier(5 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "telegraphcq: final barrier: %v\n", err)
	}
	if coord != nil {
		coord.Close()
	}
	wg.Wait()
	fmt.Println("telegraphcq: coordinator shut down")
	return 0
}

// opTimeout bounds ingest-front barriers and collects.
const opTimeout = 30 * time.Second

// serveIngest runs the line protocol on one connection.
func serveIngest(conn net.Conn, s sink) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	out := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "BARRIER":
			if err := s.Barrier(opTimeout); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				fmt.Fprintln(out, "OK")
			}
		case line == "COLLECT":
			st, err := s.Collect(opTimeout)
			if err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			} else {
				// Sorted keys and %g values: byte-identical across a
				// cluster run and a local-fold run for exactly
				// representable sums.
				for _, k := range st.Keys() {
					g := st[k]
					fmt.Fprintf(out, "%s %d %g\n", k, g.Count, g.Sum)
				}
				fmt.Fprintln(out, "END")
			}
		case line == "STATS":
			fmt.Fprintln(out, s.StatsLine())
		default:
			key, valStr, ok := strings.Cut(line, ",")
			if !ok {
				fmt.Fprintf(out, "ERR bad line %q\n", line)
				break
			}
			val, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
			if err != nil {
				fmt.Fprintf(out, "ERR bad value %q\n", valStr)
				break
			}
			if err := s.Route(key, val); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
			}
			continue // data lines get no reply; don't flush per line
		}
		if err := out.Flush(); err != nil {
			return
		}
	}
}

// serveMetrics is a minimal /metrics endpoint for the coordinator role
// (the full server's telemetry stack belongs to the engine process).
func serveMetrics(ln net.Listener, reg *telemetry.Registry) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			br := bufio.NewReader(c)
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			var body strings.Builder
			reg.WritePrometheus(&body)
			fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
				body.Len(), body.String())
		}(conn)
	}
}

// waitForSignal blocks until SIGINT/SIGTERM; a second signal forces
// exit, the operator's escape hatch from a stuck drain.
func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("telegraphcq: shutting down (signal again to force exit)")
	go func() {
		<-sig
		fmt.Println("telegraphcq: forced exit")
		os.Exit(1)
	}()
}
