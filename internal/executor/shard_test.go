package executor

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/tuple"
)

// rowKey canonicalizes one result row for multiset comparison.
func rowKey(t *tuple.Tuple) string {
	s := ""
	for _, v := range t.Values {
		s += v.String() + "|"
	}
	return s
}

// drainKeys drains a subscription after a barrier and returns the
// sorted multiset of row keys.
func drainKeys(t *testing.T, x *Executor, sub *egress.Subscription) []string {
	t.Helper()
	rows := drain(t, x, sub)
	keys := make([]string, 0, len(rows))
	for _, r := range rows {
		keys = append(keys, rowKey(r))
		tuple.Recycle(r)
	}
	sort.Strings(keys)
	return keys
}

// joinWorkload pushes an interleaved two-stream workload with a barrier
// after every push (the deterministic discipline the oracle uses) and
// returns the query's output multiset.
func joinWorkload(t *testing.T, shards, batch int) []string {
	t.Helper()
	x := New(newCat(t), Options{Shards: shards, Batch: batch, SampleInterval: -1})
	defer x.Close()
	_, sub := submit(t, x, `
		SELECT stocks.sym, price, score FROM stocks, news
		WHERE stocks.sym = news.sym
		for (t = ST; ; t += 1) { WindowIs(stocks, t - 3, t); WindowIs(news, t - 3, t); }`)
	syms := []string{"MSFT", "IBM", "ORCL", "AAPL", "TSLA"}
	for i := 0; i < 40; i++ {
		sym := syms[i%len(syms)]
		if _, err := x.Push("stocks", []tuple.Value{tuple.String(sym), tuple.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
		if err := x.Barrier(); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Push("news", []tuple.Value{tuple.String(syms[(i+2)%len(syms)]), tuple.Float(float64(i) / 10)}); err != nil {
			t.Fatal(err)
		}
		if err := x.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	return drainKeys(t, x, sub)
}

// TestShardedJoinMatchesSingleShard is the tentpole's correctness gate:
// a windowed equi-join repartitioned across hash shards must produce the
// byte-identical output multiset of the single-shard engine, across
// admission batch sizes.
func TestShardedJoinMatchesSingleShard(t *testing.T) {
	for _, batch := range []int{1, 64, 512} {
		batch := batch
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			want := joinWorkload(t, 0, batch)
			if len(want) == 0 {
				t.Fatal("single-shard workload produced no rows")
			}
			for _, shards := range []int{2, 4} {
				got := joinWorkload(t, shards, batch)
				if len(got) != len(want) {
					t.Fatalf("shards=%d: %d rows, want %d", shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d: row %d = %q, want %q", shards, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestShardedRepartitioningExchange forces a mid-plan repartition: the
// self-join keys alias a by buyer but alias b by sym, so ingress hashes
// by buyer and every b-tuple must cross the exchange to its sym shard.
func TestShardedRepartitioningExchange(t *testing.T) {
	build := func(shards int) ([]string, *Executor) {
		cat := catalog.New()
		if _, err := cat.CreateStream("trades", []tuple.Column{
			{Name: "sym", Kind: tuple.KindString},
			{Name: "buyer", Kind: tuple.KindString},
		}, false); err != nil {
			t.Fatal(err)
		}
		x := New(cat, Options{Shards: shards, SampleInterval: -1})
		_, sub := submit(t, x, `
			SELECT a.sym, b.buyer FROM trades a, trades b
			WHERE a.buyer = b.sym
			for (t = ST; ; t += 1) { WindowIs(a, t - 3, t); WindowIs(b, t - 3, t); }`)
		names := []string{"MSFT", "IBM", "ORCL", "AAPL"}
		for i := 0; i < 30; i++ {
			if _, err := x.Push("trades", []tuple.Value{
				tuple.String(names[i%len(names)]), tuple.String(names[(i+1)%len(names)]),
			}); err != nil {
				t.Fatal(err)
			}
			if err := x.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		return drainKeys(t, x, sub), x
	}
	want, x1 := build(0)
	x1.Close()
	if len(want) == 0 {
		t.Fatal("single-shard workload produced no rows")
	}
	got, x4 := build(4)
	defer x4.Close()
	if len(got) != len(want) {
		t.Fatalf("sharded rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The exchange must actually have moved tuples (b-tuples repartition
	// by sym while ingress hashes by buyer).
	var fwd float64
	for _, s := range x4.Metrics().Gather() {
		if s.Name == "tcq_shard_fwd_out_total" {
			fwd += s.Value
		}
	}
	if fwd == 0 {
		t.Fatal("no exchange traffic: repartitioning path was not exercised")
	}
}

// TestShardedPinnedAggregate checks the catch-all seam: a windowed
// aggregate (pinned — hash shards would stall window closes) must
// produce single-shard results even on a sharded EO, fed through the
// exchange alongside a shardable filter on the same stream.
func TestShardedPinnedAggregate(t *testing.T) {
	run := func(shards int) ([]string, []string) {
		x := New(newCat(t), Options{Shards: shards, SampleInterval: -1})
		defer x.Close()
		_, aggSub := submit(t, x, `
			SELECT avg(price) FROM stocks WHERE sym = 'MSFT'
			for (t = ST; ; t += 5) { WindowIs(stocks, t + 1, t + 5); }`)
		_, filtSub := submit(t, x, `SELECT sym, price FROM stocks WHERE price > 3`)
		for i := 1; i <= 11; i++ {
			pushStocks(t, x, [2]any{"MSFT", float64(i)})
			if err := x.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		return drainKeys(t, x, aggSub), drainKeys(t, x, filtSub)
	}
	wantAgg, wantFilt := run(0)
	gotAgg, gotFilt := run(4)
	if len(wantAgg) != 2 {
		t.Fatalf("single-shard agg rows = %d, want 2", len(wantAgg))
	}
	if fmt.Sprint(gotAgg) != fmt.Sprint(wantAgg) {
		t.Fatalf("sharded agg %v, want %v", gotAgg, wantAgg)
	}
	if fmt.Sprint(gotFilt) != fmt.Sprint(wantFilt) {
		t.Fatalf("sharded filter %v, want %v", gotFilt, wantFilt)
	}
}

// TestShardsOption checks Options.Shards reaches the EO a query creates.
func TestShardsOption(t *testing.T) {
	x := New(newCat(t), Options{Shards: 3, SampleInterval: -1})
	defer x.Close()
	_, sub := submit(t, x, `SELECT sym, price FROM stocks WHERE price > 50`)
	if x.EOCount() != 1 {
		t.Fatalf("EOs = %d", x.EOCount())
	}
	x.mu.Lock()
	sc := x.eos[0].shardCount()
	x.mu.Unlock()
	if sc != 3 {
		t.Fatalf("shardCount = %d, want 3", sc)
	}
	pushStocks(t, x, [2]any{"MSFT", 60.0}, [2]any{"IBM", 40.0}, [2]any{"AAPL", 55.0})
	rows := drain(t, x, sub)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		tuple.Recycle(r)
	}
}

// TestStatsConcurrentScrape hammers the telemetry seam while a workload
// runs, with and without hash shards: metric scrapes and system-stream
// sampling from multiple goroutines must stay race-free (each host's
// counters are only read by the goroutine that owns it; scrapers see
// merged snapshots).
func TestStatsConcurrentScrape(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			x := New(newCat(t), Options{Shards: shards, SampleInterval: -1})
			defer x.Close()
			_, sub := submit(t, x, `
				SELECT stocks.sym, price, score FROM stocks, news
				WHERE stocks.sym = news.sym
				for (t = ST; ; t += 1) { WindowIs(stocks, t - 3, t); WindowIs(news, t - 3, t); }`)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							x.SampleSystemStreams()
							_ = x.Metrics().Gather()
						}
					}
				}()
			}
			syms := []string{"A", "B", "C", "D"}
			for i := 0; i < 300; i++ {
				if _, err := x.Push("stocks", []tuple.Value{tuple.String(syms[i%4]), tuple.Float(float64(i))}); err != nil {
					t.Fatal(err)
				}
				if _, err := x.Push("news", []tuple.Value{tuple.String(syms[i%4]), tuple.Float(float64(i))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Barrier(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			// The merged snapshot surfaces per-shard series exactly when
			// there are hash shards, and EO-level engine totals always.
			var shardIngress, pushed float64
			for _, s := range x.Metrics().Gather() {
				switch s.Name {
				case "tcq_shard_ingress_total":
					shardIngress += s.Value
				case "tcq_engine_pushed_total":
					pushed += s.Value
				}
			}
			if pushed != 600 {
				t.Fatalf("tcq_engine_pushed_total = %v, want 600", pushed)
			}
			if want := 600.0 * float64(shards) / 2; shardIngress != want {
				t.Fatalf("tcq_shard_ingress_total = %v, want %v", shardIngress, want)
			}
			for _, r := range drain(t, x, sub) {
				tuple.Recycle(r)
			}
		})
	}
}

// stocksRoute names the aliases the first EO's thread admits the stocks
// stream under (catch-all tier), straight from its published route table.
func stocksRoute(x *Executor) []string {
	x.mu.Lock()
	eo := x.eos[0]
	x.mu.Unlock()
	var names []string
	if sr := eo.group.route.Load().streams["stocks"]; sr != nil {
		for _, ar := range sr.pin {
			names = append(names, ar.alias)
		}
	}
	return names
}

// TestCancelledAliasLeavesRoute pins a defect of the old single-engine
// EO: its alias fan-out list only ever grew, so a cancelled aliased
// query (FROM stocks AS a7) cost one clone + schema rename per tuple
// forever. The EO thread now routes by a table rebuilt on remove too.
func TestCancelledAliasLeavesRoute(t *testing.T) {
	// ClassSingle: footprints are alias sets, so by default each alias
	// of stocks would get an EO of its own.
	x := New(newCat(t), Options{Mode: ClassSingle, SampleInterval: -1})
	defer x.Close()
	_, keep := submit(t, x, `SELECT sym FROM stocks`)
	var ids []int
	for i := 0; i < 3; i++ {
		id, _ := submit(t, x, fmt.Sprintf(`SELECT a%d.sym FROM stocks AS a%d`, i, i))
		ids = append(ids, id)
	}
	if x.EOCount() != 1 {
		t.Fatalf("EOs = %d, want 1", x.EOCount())
	}
	if got := fmt.Sprint(stocksRoute(x)); got != "[stocks a0 a1 a2]" {
		t.Fatalf("route before cancel = %s", got)
	}
	for _, id := range ids {
		if err := x.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(stocksRoute(x)); got != "[stocks]" {
		t.Fatalf("route after cancel = %s, want [stocks]", got)
	}
	// Observable from outside too: the engine is pushed one tuple per
	// row, not one per alias that ever existed.
	pushed := func() (n float64) {
		for _, s := range x.Metrics().Gather() {
			if s.Name == "tcq_engine_pushed_total" {
				n += s.Value
			}
		}
		return n
	}
	before := pushed()
	pushN(t, x, 10)
	if got := len(drain(t, x, keep)); got != 10 {
		t.Fatalf("surviving query delivered %d of 10", got)
	}
	if got := pushed() - before; got != 10 {
		t.Fatalf("engine pushed %v tuples for 10 rows", got)
	}
}

// TestSubmitCancelWhilePushing churns aliased queries on one EO while
// another goroutine pushes the stream they read. The old EO read its
// alias map on the EO goroutine while Submit wrote it under the
// executor lock; run under -race this is the regression test for that.
func TestSubmitCancelWhilePushing(t *testing.T) {
	x := New(newCat(t), Options{Mode: ClassSingle, SampleInterval: -1})
	defer x.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := x.Push("stocks", []tuple.Value{tuple.String("S"), tuple.Float(float64(i))}); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched() // on one P, let the EO and the submitter run
		}
	}()
	for i := 0; i < 200; i++ {
		// Prices are never negative, so no query ever has output rows.
		id, sub := submit(t, x, fmt.Sprintf(`SELECT z%d.sym FROM stocks AS z%d WHERE z%d.price < 0`, i, i, i))
		if err := x.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if _, ok := sub.TryNext(); ok {
			t.Fatalf("query %d delivered a row", id)
		}
	}
	close(stop)
	wg.Wait()
	if err := x.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := stocksRoute(x); len(got) != 0 {
		t.Fatalf("route after churn = %v, want none", got)
	}
}

// eoGoroutines counts live goroutines started by newEO (the EO
// scheduler) and by newShardGroup (hash shards).
func eoGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by telegraphcq/internal/executor.(*Executor).newEO") +
		strings.Count(string(buf), "created by telegraphcq/internal/executor.newShardGroup")
}

// TestUnshardedEOIsOneGoroutine checks the zero-hash-shard case is
// exactly the one-thread EO of the paper: Shards ≤ 1 starts one
// goroutine and reports no tcq_shards rows or tcq_shard_* series, while
// Shards = 2 adds one goroutine and one row per hash shard plus the
// catch-all's row.
func TestUnshardedEOIsOneGoroutine(t *testing.T) {
	for _, tc := range []struct{ shards, goroutines, rows int }{
		{0, 1, 0}, {1, 1, 0}, {2, 3, 3},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			// Earlier tests' EOs have exited by the time their Close returned.
			base := eoGoroutines()
			x := New(newCat(t), Options{Mode: ClassSingle, Shards: tc.shards, SampleInterval: -1})
			defer x.Close()
			submit(t, x, `SELECT sym FROM stocks`)
			if got := eoGoroutines() - base; got != tc.goroutines {
				t.Fatalf("EO started %d goroutines, want %d", got, tc.goroutines)
			}
			_, rows := submit(t, x, `SELECT eo, shard, catch_all FROM tcq_shards`)
			x.SampleSystemStreams()
			if got := len(drain(t, x, rows)); got != tc.rows {
				t.Fatalf("tcq_shards rows = %d, want %d", got, tc.rows)
			}
			series := 0
			for _, s := range x.Metrics().Gather() {
				if strings.HasPrefix(s.Name, "tcq_shard_") {
					series++
				}
			}
			if (series > 0) != (tc.rows > 0) {
				t.Fatalf("tcq_shard_* series = %d with %d shard rows", series, tc.rows)
			}
		})
	}
}

// TestBarrierMergesEgressWhileShardQuiesces makes one quiesce round of
// one hash shard produce more result rows than its egress ring holds
// (one stocks tuple probing 9000 same-key news tuples). The EO must keep
// merging egress while it waits for the shard's reply, or each waits on
// the other forever.
func TestBarrierMergesEgressWhileShardQuiesces(t *testing.T) {
	const n = egressRingCap + 808
	x := New(newCat(t), Options{Shards: 2, SubscriptionCap: 2 * n, QueueCap: 2 * n, SampleInterval: -1})
	defer x.Close()
	_, sub := submit(t, x, fmt.Sprintf(`
		SELECT stocks.sym, score FROM stocks, news
		WHERE stocks.sym = news.sym
		for (t = ST; ; t += 1) { WindowIs(stocks, t - %d, t); WindowIs(news, t - %d, t); }`, 4*n, 4*n))
	rows := make([][]tuple.Value, n)
	for i := range rows {
		rows[i] = []tuple.Value{tuple.String("A"), tuple.Float(float64(i))}
	}
	if _, err := x.PushBatch("news", rows); err != nil {
		t.Fatal(err)
	}
	if err := x.Barrier(); err != nil {
		t.Fatal(err)
	}
	pushStocks(t, x, [2]any{"A", 1.0})
	done := make(chan error, 1)
	go func() { done <- x.Barrier() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("barrier deadlocked: shard blocked publishing, EO blocked on its reply")
	}
	if got := len(drain(t, x, sub)); got != n {
		t.Fatalf("join rows = %d, want %d", got, n)
	}
}
