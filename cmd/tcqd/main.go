// tcqd is the TelegraphCQ daemon: it listens on a FrontEnd port for SQL
// (DDL, INSERT, continuous SELECT with FOR-loop windows) and on a
// Wrapper port for pushed stream data ("stream,field,field,..." lines).
//
// Usage:
//
//	tcqd -front :5432 -wrapper :5433
//
// Try it with cmd/tcq (interactive client) and cmd/tcqgen (data
// generator).
//
// With -role, tcqd instead joins a networked Flux deployment (see
// internal/cluster and cluster.go in this package):
//
//	tcqd -role=worker -exchange 127.0.0.1:6001
//	tcqd -role=coordinator -workers 127.0.0.1:6001,127.0.0.1:6002 -ingest 127.0.0.1:6000
//
// Dynamic membership (workers find the coordinator, not the reverse):
//
//	tcqd -role=coordinator -listen 127.0.0.1:6005 -journal /var/lib/tcq/coord.journal -ingest 127.0.0.1:6000
//	tcqd -role=worker -exchange 127.0.0.1:6001 -coordinator 127.0.0.1:6005 -name node-a
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/server"
)

func main() {
	front := flag.String("front", "127.0.0.1:5432", "FrontEnd (query) listen address")
	wrapper := flag.String("wrapper", "127.0.0.1:5433", "Wrapper (data ingress) listen address")
	metricsAddr := flag.String("metrics-addr", "", "telemetry HTTP listen address (/metrics, /statz, /healthz, /debug/pprof/); empty disables")
	mode := flag.String("class-mode", "footprint", "query class placement: footprint|single|per-query")
	batch := flag.Int("batch", 0, "eddy tuple-batching knob (0 = auto: full drains when compiled, 1 otherwise)")
	shards := flag.Int("shards", 0, "hash-partitioned eddy shards per EO beside its inline catch-all (0/1 = none)")
	hops := flag.Int("fixed-hops", 1, "eddy operator-fixing knob")
	chaosSpec := flag.String("chaos", "", `fault injection spec, e.g. "seed=7,drop=0.01,stall=0.05,corrupt=0.02" (see internal/chaos)`)
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "max time to flush in-flight tuples on SIGINT/SIGTERM")
	role := flag.String("role", "", "cluster role: coordinator|worker (empty = standalone engine)")
	exchange := flag.String("exchange", "127.0.0.1:6001", "worker role: exchange listen address")
	workers := flag.String("workers", "", "coordinator role: comma-separated worker exchange addresses (empty = local fold)")
	ingest := flag.String("ingest", "127.0.0.1:6000", "coordinator role: ingest listen address")
	buckets := flag.Int("buckets", 0, "coordinator role: partition bucket count (0 = 8 per worker)")
	heartbeat := flag.Duration("heartbeat", 100*time.Millisecond, "coordinator role: failure-detection interval")
	listen := flag.String("listen", "", "coordinator role: worker registry listen address (empty = static -workers membership only)")
	journal := flag.String("journal", "", "coordinator role: durable shard-map journal path (empty = in-memory only)")
	coordinator := flag.String("coordinator", "", "worker role: coordinator registry address to register with (empty = wait to be dialed)")
	name := flag.String("name", "", "worker role: stable node name for rejoin identity (default = exchange address)")
	flag.Parse()
	if *metricsAddr == "" {
		// Linking the /debug/pprof/ handlers turns on the runtime's heap
		// sampling in every process; only one that serves them needs it.
		runtime.MemProfileRate = 0
	}

	switch *role {
	case "":
	case "worker":
		os.Exit(runWorker(*exchange, *coordinator, *name, *chaosSpec))
	case "coordinator":
		os.Exit(runCoordinator(*ingest, *workers, *listen, *journal, *buckets, *heartbeat, *metricsAddr))
	default:
		fmt.Fprintf(os.Stderr, "bad -role %q (want coordinator or worker)\n", *role)
		os.Exit(2)
	}

	if *shards < 0 || *shards > 64 {
		fmt.Fprintf(os.Stderr, "bad -shards %d (want 0..64)\n", *shards)
		os.Exit(2)
	}
	opts := executor.Options{Batch: *batch, Shards: *shards, FixedHops: *hops}
	if *chaosSpec != "" {
		inj, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -chaos spec: %v\n", err)
			os.Exit(2)
		}
		opts.Chaos = inj
		fmt.Printf("telegraphcq: CHAOS MODE %s\n", *chaosSpec)
	}
	switch *mode {
	case "footprint":
		opts.Mode = executor.ClassByFootprint
	case "single":
		opts.Mode = executor.ClassSingle
	case "per-query":
		opts.Mode = executor.ClassPerQuery
	default:
		fmt.Fprintf(os.Stderr, "bad -class-mode %q\n", *mode)
		os.Exit(2)
	}

	srv := server.New(opts)
	f, w, err := srv.Start(*front, *wrapper)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("telegraphcq: frontend on %s, wrapper on %s\n", f, w)
	if *metricsAddr != "" {
		m, err := srv.StartMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			srv.Close()
			os.Exit(1)
		}
		fmt.Printf("telegraphcq: metrics on http://%s/metrics\n", m)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("telegraphcq: draining (signal again to force exit)")
	go func() {
		// A second signal skips the drain: operators must always have a
		// way to make the process leave now.
		<-sig
		fmt.Println("telegraphcq: forced exit")
		os.Exit(1)
	}()
	srv.Drain(*drainTimeout)
	fmt.Println("telegraphcq: shut down")
}
