package experiments

import (
	"fmt"
	"time"

	"telegraphcq/internal/cluster"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// startFlux boots an in-process Flux deployment: the same
// cluster.Coordinator and cluster.Workers `tcqd -role=...` runs as OS
// processes, here in one process over loopback TCP.
func startFlux(workers int, cfg cluster.Config) (*cluster.Coordinator, []*cluster.Worker, func()) {
	quiet := func(string, ...any) {}
	ws := make([]*cluster.Worker, workers)
	for i := range ws {
		ws[i] = cluster.NewWorker()
		ws[i].Logf = quiet
		addr, err := ws[i].Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		cfg.Workers = append(cfg.Workers, addr)
	}
	cfg.Logf = quiet
	c, err := cluster.NewCoordinator(cfg)
	if err == nil {
		err = c.Start()
	}
	if err != nil {
		panic(err)
	}
	return c, ws, func() {
		c.Close()
		for _, w := range ws {
			w.Close()
		}
	}
}

// E6Flux reproduces the Flux claims (§2.4, [SHCF03]) on the real
// coordinator/worker code: (a) the skew balancer moves buckets — with
// their state — off the node a skewed key distribution overloads,
// while the dataflow runs, and (b) process-pair replication makes a
// mid-run node failure lossless, while the unreplicated dataflow loses
// the dead node's accumulated state. Every wait is a Barrier or Collect
// or a coordinator counter; the only clock is the cluster's own
// heartbeat, which paces failure detection and the balancer.
func E6Flux(scale int) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Flux: online repartitioning and process-pair failover",
		Claim:   "repartitioning rebalances a skewed cluster mid-stream; replication makes failover lossless (Flux, ICDE 2003)",
		Columns: []string{"configuration", "time", "groups kept", "count error", "hot-node share", "moves", "promotions"},
	}
	const (
		nodes      = 4
		hb         = 200 * time.Millisecond
		srcCol     = 0 // Zipf over hosts: the hottest key alone is ~21% of the rows
		dstCol     = 1 // uniform over hosts
		bytesCol   = 3
		convergeBy = 15 * time.Second
	)
	n := 4000 * scale
	rows := workload.Flows{Hosts: 64, Seed: 4}.Rows(n)
	off, on := false, true
	balancer := cluster.BalanceConfig{Interval: hb, Ratio: 1.15, After: 2, Cooldown: 1}

	run := func(name string, keyCol int, cfg cluster.Config, kill, converge bool) {
		cfg.Heartbeat, cfg.Buckets = hb, 8*nodes
		c, ws, stop := startFlux(nodes, cfg)
		defer stop()
		want := map[string]int64{}
		route := func(rs []*tuple.Tuple) {
			for _, r := range rs {
				k := r.Values[keyCol].S
				if err := c.Route(k, r.Values[bytesCol].F); err != nil {
					panic(err)
				}
				want[k]++
			}
		}
		barrier := func() {
			if err := c.Barrier(30 * time.Second); err != nil {
				panic(err)
			}
		}
		// hotShare routes rs and returns the busiest node's share of
		// the entries the workers folded meanwhile.
		hotShare := func(rs []*tuple.Tuple) float64 {
			base := make([]int64, nodes)
			for i, w := range ws {
				base[i] = w.Stats().Processed
			}
			route(rs)
			barrier()
			var hot, total int64
			for i, w := range ws {
				d := w.Stats().Processed - base[i]
				total += d
				if d > hot {
					hot = d
				}
			}
			return float64(hot) / float64(total)
		}

		start := time.Now()
		share := "-"
		switch {
		case kill:
			route(rows[:n/2])
			barrier()
			ws[1].Close()
			route(rows[n/2:])
		case converge:
			before := hotShare(rows)
			for deadline := start.Add(convergeBy); c.Stats().RebalanceMovesSkew < 2 && time.Now().Before(deadline); {
				route(rows)
			}
			barrier()
			share = f2(before) + " → " + f2(hotShare(rows))
		default:
			share = f2(hotShare(rows))
		}
		got, err := c.Collect(30 * time.Second)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		var wrong int64
		for k, d := range want {
			if g := got[k]; g != nil {
				d -= g.Count
			}
			if d < 0 {
				d = -d
			}
			wrong += d
		}
		st := c.Stats()
		t.Rows = append(t.Rows, []string{
			name, elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", len(got), len(want)), fmt.Sprint(wrong),
			share, fmt.Sprint(st.Moves), fmt.Sprint(st.Promotions),
		})
	}

	unbalanced := cluster.BalanceConfig{Disabled: true}
	run("balanced cluster", dstCol, cluster.Config{Replication: &off, Balance: unbalanced}, false, false)
	run("key skew, balancer off", srcCol, cluster.Config{Replication: &off, Balance: unbalanced}, false, false)
	run("key skew, balancer on", srcCol, cluster.Config{Replication: &off, Balance: balancer}, false, true)
	run("kill @50%, no replication", srcCol, cluster.Config{Replication: &off, Balance: unbalanced}, true, false)
	run("kill @50%, process pairs", srcCol, cluster.Config{Replication: &on, Balance: unbalanced}, true, false)

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d flow records per pass, %d in-process workers × %d buckets over loopback TCP, %v heartbeat; grouped count/sum per host", n, nodes, 8*nodes, hb),
		"'count error' sums |count − truth| over groups (0 = exact); 'hot-node share' is the busiest worker's share of the entries folded in one pass (0.25 = even), measured unreplicated so a fold is a routed entry",
		"the balancer row keeps routing passes until two skew moves land, then measures a fresh pass (before → after); its time is balancer intervals, not work")
	return t
}
