// Cluster scale-out with Flux (§2.4): a partitioned per-host bandwidth
// aggregate runs across a shared-nothing cluster — here four
// cluster.Workers and a cluster.Coordinator in one process over
// loopback TCP, the same code `tcqd -role=worker|coordinator` runs as
// separate OS processes. Five scenarios, one line each: a balanced
// cluster; a key-skewed stream that overloads one node; the skew
// balancer moving buckets (with their state) off that node while the
// stream runs; a node killed mid-stream with and without process-pair
// replication.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"telegraphcq/internal/cluster"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

const (
	nodes     = 4
	heartbeat = 200 * time.Millisecond
	wait      = 30 * time.Second
)

// scenario is one line of the demo.
type scenario struct {
	name      string
	keyCol    int // flows column to partition on: 0 = src (Zipf-skewed), 1 = dst (uniform)
	replicate bool
	balance   cluster.BalanceConfig
	kill      bool // close worker 1 halfway through the stream
	converge  bool // keep streaming until the balancer has moved two buckets
}

func main() {
	log.SetFlags(0)
	rows := (workload.Flows{Hosts: 32, Seed: 21}).Rows(3000)
	off := cluster.BalanceConfig{Disabled: true}
	on := cluster.BalanceConfig{Interval: heartbeat, Ratio: 1.15, After: 2, Cooldown: 1}
	var last cluster.BucketState
	for _, s := range []scenario{
		{name: "balanced cluster", keyCol: 1, balance: off},
		{name: "key skew, balancer off", keyCol: 0, balance: off},
		{name: "key skew, balancer on", keyCol: 0, balance: on, converge: true},
		{name: "kill @50%, no replication", keyCol: 0, balance: off, kill: true},
		{name: "kill @50%, process pairs", keyCol: 0, balance: off, kill: true, replicate: true},
	} {
		last = run(s, rows)
	}

	// Top talkers from the last (lossless) scenario.
	keys := last.Keys()
	sort.SliceStable(keys, func(i, j int) bool { return last[keys[i]].Count > last[keys[j]].Count })
	fmt.Println("\ntop talkers (host, flows, bytes):")
	for _, k := range keys[:5] {
		fmt.Printf("  %s  %5d  %.0f\n", k, last[k].Count, last[k].Sum)
	}
}

func run(s scenario, rows []*tuple.Tuple) cluster.BucketState {
	// Boot the workers, then a coordinator with the static roster.
	quiet := func(string, ...any) {}
	cfg := cluster.Config{Heartbeat: heartbeat, Replication: &s.replicate, Balance: s.balance, Logf: quiet}
	workers := make([]*cluster.Worker, nodes)
	for i := range workers {
		workers[i] = cluster.NewWorker()
		workers[i].Logf = quiet
		addr, err := workers[i].Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer workers[i].Close()
		cfg.Workers = append(cfg.Workers, addr)
	}
	c, err := cluster.NewCoordinator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Start(); err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	truth := map[string]int64{}
	route := func(rs []*tuple.Tuple) {
		for _, r := range rs {
			host := r.Values[s.keyCol].S
			if err := c.Route(host, r.Values[3].F); err != nil {
				log.Fatal(err)
			}
			truth[host]++
		}
	}
	barrier := func() {
		if err := c.Barrier(wait); err != nil {
			log.Fatal(err)
		}
	}
	folded := func() []int64 {
		out := make([]int64, nodes)
		for i, w := range workers {
			out[i] = w.Stats().Processed
		}
		return out
	}

	start := time.Now()
	switch {
	case s.kill:
		route(rows[:len(rows)/2])
		barrier()
		workers[1].Close() // abrupt: listener gone, connections severed
		route(rows[len(rows)/2:])
	case s.converge:
		for deadline := start.Add(15 * time.Second); c.Stats().RebalanceMovesSkew < 2 && time.Now().Before(deadline); {
			route(rows)
		}
	}
	// One measured pass: which worker folded how much of it. (Skipped
	// for the kill scenarios, whose stream is already complete.)
	share := "-"
	if !s.kill {
		barrier()
		base := folded()
		route(rows)
		barrier()
		var hot, total int64
		for i, f := range folded() {
			total += f - base[i]
			if f-base[i] > hot {
				hot = f - base[i]
			}
		}
		share = fmt.Sprintf("%.2f", float64(hot)/float64(total))
	}
	got, err := c.Collect(wait)
	if err != nil {
		log.Fatal(err)
	}
	var missing int64
	for host, want := range truth {
		if g := got[host]; g == nil {
			missing += want
		} else if g.Count < want {
			missing += want - g.Count
		}
	}
	st := c.Stats()
	fmt.Printf("%-26s %7v  hot-node share %-4s  moves %d  promotions %d  buckets lost %d  undercount %d\n",
		s.name, time.Since(start).Round(time.Millisecond), share, st.Moves, st.Promotions, st.BucketsLost, missing)
	return got
}
