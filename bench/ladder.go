package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"telegraphcq/internal/bitset"
	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/expr/prog"
	"telegraphcq/internal/fanout"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/ingress"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/plan"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/tuple"
)

// The ladder is the in-process half of a traced run: one goroutine feeds
// the workload's own generated rows, 256 at a time, to timed calls into
// each module's public functions, so the daemon's CPU per row can be
// split by layer. Three rungs always run on the rows of the workload
// that exercises them (the SteM on window-join's, the grouped filter on
// shared-select's, the window fold on window-agg's): they are the
// reference cost of a module, flat on workloads that never call it.

const ladderBatch = 256

// ladderRows caps how many rows the ladder replays: enough batches for a
// steady mean, few enough that the traced run stays short.
func ladderRows(w *workload) int {
	n := int(0.5*float64(w.floodRate)) / ladderBatch * ladderBatch
	if n > 1<<16 {
		n = 1 << 16
	}
	return n
}

// rung accumulates one layer's cost. Single-goroutine rungs are timed on
// the wall clock by their spans. A rung that hands work to other
// goroutines (the executor's EO, the fan-out relays) is charged the
// process's CPU time instead: its caller mostly waits, and the EO's idle
// poll sleeps a millisecond, which is latency and not cost.
type rung struct {
	ns    int64
	units int64
}

func (r *rung) per() float64 { return ratio(float64(r.ns), float64(r.units)) }

func processCPU() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// parsed is an input replayed through the ingress parser once, for the
// rungs that start from values.
type parsed struct {
	in      *input
	schemas []*tuple.Schema // per stream, as the catalog built them
	vals    [][]tuple.Value
}

// ladderCatalog creates w's streams in a fresh catalog.
func ladderCatalog(w *workload) (*catalog.Catalog, []*tuple.Schema, error) {
	cat := catalog.New()
	var schemas []*tuple.Schema
	for _, ddl := range w.ddl {
		st, err := sql.Parse(ddl)
		if err != nil {
			return nil, nil, err
		}
		cs, ok := st.(*sql.CreateStream)
		if !ok {
			return nil, nil, fmt.Errorf("ladder: %q is not CREATE STREAM", ddl)
		}
		src, err := cat.CreateStream(cs.Name, cs.Cols, false)
		if err != nil {
			return nil, nil, err
		}
		schemas = append(schemas, src.Schema)
	}
	return cat, schemas, nil
}

func parseInput(w *workload, in *input) (*parsed, error) {
	_, schemas, err := ladderCatalog(w)
	if err != nil {
		return nil, err
	}
	p := &parsed{in: in, schemas: schemas, vals: make([][]tuple.Value, in.n())}
	for i := range p.vals {
		if p.vals[i], err = ingress.ParseRow(schemas[in.strm[i]], strings.Split(string(in.payload(i)), ",")); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// tuple builds row i as the executor admits it: pooled, stamped with its
// per-stream sequence number, renamed to the alias the queries read.
func (p *parsed) tuple(i int, seq int64, schema *tuple.Schema) *tuple.Tuple {
	t := tuple.NewPooled(schema)
	t.Values = append(t.Values, p.vals[i]...)
	t.TS = tuple.Timestamp{Seq: seq}
	return t
}

// selectOf parses a standing statement down to its SELECT.
func selectOf(stmt string) (*sql.Select, bool, error) {
	st, err := sql.Parse(stmt)
	if err != nil {
		return nil, false, err
	}
	switch s := st.(type) {
	case *sql.Select:
		return s, false, nil
	case *sql.Subscribe:
		return s.Sel, true, nil
	}
	return nil, false, fmt.Errorf("ladder: %q is not a query", stmt)
}

// runLadder measures every rung on w at seed and adds the per-layer
// metrics to put. cpuUsPerRow is the traced daemon's cost, which the last
// rung reconciles against.
func runLadder(w *workload, seed int64, spans *spanLog, cpuUsPerRow float64, put func(string, float64, string)) error {
	spans.workload = w.name
	n := ladderRows(w)
	in := generate(w, seed, n)
	qs := standingQueries(w, seed)
	home := map[*workload]*parsed{}
	for _, hw := range []*workload{w, sharedSelect, windowJoin, windowAgg} {
		if home[hw] != nil {
			continue
		}
		hin := in
		if hw != w {
			hin = generate(hw, seed, n)
		}
		p, err := parseInput(hw, hin)
		if err != nil {
			return err
		}
		home[hw] = p
	}
	own := home[w]

	// ---- statement rungs: parse, then submit into a fresh executor.
	var sqlParse, submit rung
	stmts := append(append([]string(nil), w.ddl...), sqlOf(qs)...)
	for sqlParse.units < 2048 {
		id := spans.begin("sql.parse", 0)
		for _, st := range stmts {
			if _, err := sql.Parse(st); err != nil {
				return err
			}
		}
		sqlParse.ns += spans.end(id)
		sqlParse.units += int64(len(stmts))
	}
	for submit.units < 256 {
		x, err := ladderExecutor(w)
		if err != nil {
			return err
		}
		id := spans.begin("executor.submit", 0)
		_, _, err = submitAll(x, qs)
		submit.ns += spans.end(id)
		submit.units += int64(len(qs))
		x.Close()
		if err != nil {
			return err
		}
	}
	put("sql.parse_us_per_stmt", sqlParse.per()/1e3, "us")
	put("executor.submit_us_per_query", submit.per()/1e3, "us")

	// ---- fixtures of the per-row rungs.
	hop := fjord.NewSPSC[*tuple.Tuple](floodWindow)
	hopDst := make([]*tuple.Tuple, ladderBatch)

	predSel, _, err := selectOf(qs[0].sql)
	if err != nil {
		return err
	}
	predSchema := own.schemas[0]
	if a := predSel.From[0].Alias; a != "" {
		predSchema = predSchema.RenameShared(a)
	}
	// The first query's single-stream factors: what the vectorized filter
	// path would evaluate over a batch of this stream.
	var single []expr.Expr
	for _, f := range expr.Conjuncts(predSel.Where) {
		if _, ok := expr.AsRangeFactor(f); ok {
			single = append(single, f)
		}
	}
	var pred *prog.Pred
	if len(single) > 0 {
		for _, c := range expr.Columns(expr.Conjoin(single), nil) {
			c.Source = predSchema.Cols[0].Source
		}
		if pred, err = prog.CompilePred(expr.Conjoin(single), predSchema); err != nil {
			return err
		}
	}
	var cb tuple.ColBatch
	sel := make([]int32, 0, ladderBatch)

	gf := operator.NewGroupedFilter(expr.Col("quotes", "price"))
	gfQs := standingQueries(sharedSelect, seed)
	universe, matched := bitset.New(len(gfQs)), bitset.New(len(gfQs))
	for qi, q := range gfQs {
		if q.kind != kSelect {
			continue
		}
		universe.Add(qi)
		for _, rf := range []expr.RangeFactor{
			{Col: gf.Column(), Op: expr.OpGt, Val: tuple.Float(float64(q.lo) / eighth)},
			{Col: gf.Column(), Op: expr.OpLe, Val: tuple.Float(float64(q.hi) / eighth)},
		} {
			if err := gf.AddFactor(qi, rf); err != nil {
				return err
			}
		}
	}
	gfIn := home[sharedSelect]

	cat, _, err := ladderCatalog(w)
	if err != nil {
		return err
	}
	engine := cacq.NewEngine(eddy.NewLottery(1), func(_ int, row *tuple.Tuple) { tuple.Recycle(row) })
	engine.Eddy().BatchSize = ladderBatch // the executor's default for a compiled engine
	alias := make([]*tuple.Schema, len(w.streams))
	copy(alias, own.schemas)
	planner := plan.New(cat)
	for qi, q := range qs {
		s, _, err := selectOf(q.sql)
		if err != nil {
			return err
		}
		planned, err := planner.PlanSelect(s, qi)
		if err != nil {
			return err
		}
		if err := engine.AddQuery(planned.CQ); err != nil {
			return err
		}
		for _, f := range planned.Feeds {
			for si, name := range w.streams {
				if name == f.Stream && f.As != name {
					alias[si] = own.schemas[si].RenameShared(f.As)
				}
			}
		}
	}

	joinIn := home[windowJoin]
	quoteSchema := joinIn.schemas[0].RenameShared("a")
	newsSchema := joinIn.schemas[1].RenameShared("b")
	sm := stem.New("a", expr.Col("a", "sym"))
	probe := stem.ProbeSpec{KeyExpr: expr.Col("b", "sym"),
		Residual: expr.Bin(expr.OpGt, expr.Col("a", "price"), expr.Col("b", "score"))}
	var joinSeq [2]int64

	aggIn := home[windowAgg]
	aggSel, _, err := selectOf(standingQueries(windowAgg, seed)[0].sql)
	if err != nil {
		return err
	}
	var aggSpecs []operator.AggSpec
	for _, it := range aggSel.Items {
		if it.Agg != nil {
			for _, c := range expr.Columns(it.Agg.Arg, nil) {
				c.Source = "readings"
			}
			aggSpecs = append(aggSpecs, *it.Agg)
		}
	}
	for _, g := range aggSel.GroupBy {
		g.Source = "readings"
	}
	winagg, err := operator.NewWindowAgg("ladder.agg", "readings", aggSel.Window, 0, aggSel.GroupBy, aggSpecs, operator.StrategyAuto)
	if err != nil {
		return err
	}
	recycle := func(t *tuple.Tuple) { tuple.Recycle(t) }

	hub := egress.NewHub()
	hubSub := hub.Subscribe(0, floodWindow)
	textBuf := make([]byte, 0, 256)

	attach := func(tree *fanout.Tree, n int) ([]*fanout.Subscriber, error) {
		subs := make([]*fanout.Subscriber, n)
		for i := range subs {
			var err error
			if subs[i], err = tree.Attach(fanout.SubOptions{QoS: fjord.QoS{Policy: fjord.Block, BlockTimeout: 10 * time.Second}}); err != nil {
				return nil, err
			}
		}
		return subs, nil
	}
	tree1 := fanout.NewTree(fanout.Options{Prefix: "row 0 "})
	defer tree1.Close()
	tree64 := fanout.NewTree(fanout.Options{Prefix: "row 0 "})
	defer tree64.Close()
	subs1, err := attach(tree1, 1)
	if err != nil {
		return err
	}
	subs64, err := attach(tree64, 64)
	if err != nil {
		return err
	}

	x, err := ladderExecutor(w)
	if err != nil {
		return err
	}
	plain, fans, err := submitAll(x, qs)
	// A fan-out subscriber that stops reading blocks its leaf for the whole
	// block timeout per frame, so the subscribers hang up before the
	// executor closes.
	defer func() {
		for _, sub := range fans {
			sub.Close()
		}
		x.Close()
	}()
	if err != nil {
		return err
	}
	inFlight := func() int {
		n := 0
		for _, t := range x.FanoutTrees() {
			n += t.Pending()
		}
		return n
	}
	drainBuf := make([]*tuple.Tuple, floodWindow)

	var parse, hopR, selR, gfR, engR, build, evict, probeR, aggR, deliver, text, pub1, pub64, emb rung
	var ownSeq [2]int64
	var embOut int64
	batch := make([]*tuple.Tuple, 0, ladderBatch)
	fresh := func(p *parsed, from, to int, seq *[2]int64, schemas []*tuple.Schema) []*tuple.Tuple {
		batch = batch[:0]
		for i := from; i < to; i++ {
			s := p.in.strm[i]
			seq[s]++
			batch = append(batch, p.tuple(i, seq[s], schemas[s]))
		}
		return batch
	}
	var scratchSeq [2]int64
	scratch := func(p *parsed, from, to int, schemas []*tuple.Schema) []*tuple.Tuple {
		scratchSeq = [2]int64{}
		return fresh(p, from, to, &scratchSeq, schemas)
	}

	for from := 0; from < n; from += ladderBatch {
		to := from + ladderBatch
		root := spans.begin("batch", 0)
		timed := func(r *rung, name string, units int, work func()) {
			id := spans.begin(name, root)
			work()
			r.ns += spans.end(id)
			r.units += int64(units)
		}
		onCPU := func(r *rung, name string, units int, work func()) {
			id := spans.begin(name, root)
			c := processCPU()
			work()
			r.ns += processCPU() - c
			r.units += int64(units)
			spans.end(id)
		}

		// ingress: what PushServer.serve does to each line before the sink.
		timed(&parse, "ingress.parse", ladderBatch, func() {
			for i := from; i < to; i++ {
				line := string(in.buf[in.off[i] : in.off[i+1]-1])
				idx := strings.IndexByte(line, ',')
				schema := own.schemas[in.strm[i]]
				if _, err = ingress.ParseRow(schema, strings.Split(line[idx+1:], ",")); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}

		ts := scratch(own, from, to, own.schemas)
		timed(&hopR, "fjord.hop", ladderBatch, func() {
			for _, t := range ts {
				fjord.Offer[*tuple.Tuple](hop, t, fjord.OfferOpts{QoS: fjord.QoS{Policy: fjord.Block}})
			}
			for got := 0; got < len(ts); {
				got += hop.DequeueBatch(hopDst)
			}
		})

		if pred != nil {
			run := ts[:0:0]
			for _, t := range ts {
				if t.Schema == own.schemas[0] {
					t.Schema = predSchema
					run = append(run, t)
				}
			}
			timed(&selR, "expr.prog.select", len(run), func() {
				if cb.Load(run) {
					sel = sel[:0]
					for l := 0; l < len(run); l++ {
						sel = append(sel, int32(l))
					}
					_, err = pred.Select(&cb, sel)
				}
			})
			if err != nil {
				return err
			}
		}

		timed(&text, "tuple.append_text", ladderBatch, func() {
			for _, t := range ts {
				textBuf = t.AppendText(textBuf[:0])
			}
		})
		for _, t := range ts {
			tuple.Recycle(t)
		}

		timed(&gfR, "operator.gfilter_probe", ladderBatch, func() {
			for i := from; i < to; i++ {
				if err = gf.MatchQueriesInto(tuple.Float(float64(gfIn.in.val[i])/eighth), universe, matched); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}

		ts = fresh(own, from, to, &ownSeq, alias)
		timed(&engR, "cacq.engine", ladderBatch, func() {
			for _, t := range ts {
				if err = engine.Push(t); err != nil {
					return
				}
			}
			err = engine.Run()
		})
		if err != nil {
			return err
		}

		// SteM: the quotes of the batch are built and the window edge moved
		// past each, then the news of the batch probe, as one EO quantum does.
		ts = fresh(joinIn, from, to, &joinSeq, []*tuple.Schema{quoteSchema, newsSchema})
		var quotes, news []*tuple.Tuple
		for _, t := range ts {
			t.Arrival = t.TS.Seq
			if t.Schema == quoteSchema {
				quotes = append(quotes, t)
			} else {
				news = append(news, t)
			}
		}
		timed(&build, "stem.build", len(quotes), func() {
			for _, t := range quotes {
				if err = sm.Build(t); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		timed(&evict, "stem.evict", len(quotes), func() {
			for _, t := range quotes {
				sm.EvictBefore(t.TS.Seq - joinWidth + 1)
			}
		})
		timed(&probeR, "stem.probe", len(news), func() {
			for _, t := range news {
				if _, err = sm.Probe(t, probe); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		for _, t := range news {
			tuple.Recycle(t)
		}

		ts = scratch(aggIn, from, to, aggIn.schemas)
		for i, t := range ts {
			t.TS.Seq = int64(from + i + 1)
			t.Retain() // the window buffer keeps rows, as in the engine
		}
		timed(&aggR, "operator.winagg", ladderBatch, func() {
			for _, t := range ts {
				if _, err = winagg.Process(t, recycle); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}

		ts = scratch(own, from, to, own.schemas)
		timed(&deliver, "egress.deliver", ladderBatch, func() {
			hub.DeliverBatch(0, ts)
			hubSub.NextBatch(drainBuf)
		})
		for _, t := range drainBuf[:ladderBatch] {
			tuple.Recycle(t)
		}

		ts = scratch(own, from, to, own.schemas)
		for _, p := range []struct {
			r    *rung
			name string
			tree *fanout.Tree
			subs []*fanout.Subscriber
		}{{&pub1, "fanout.publish", tree1, subs1}, {&pub64, "fanout.publish_64", tree64, subs64}} {
			onCPU(p.r, p.name, ladderBatch, func() {
				p.tree.Publish(ts, 0)
				for _, sub := range p.subs {
					if f, ok := sub.NextFrame(); ok {
						f.Release()
					}
				}
			})
		}
		for _, t := range ts {
			tuple.Recycle(t)
		}

		// executor: the embedded API end to end, results drained.
		onCPU(&emb, "executor.embedded", ladderBatch, func() {
			for i := from; i < to; {
				j := i + 1
				for j < to && in.strm[j] == in.strm[i] {
					j++
				}
				if _, err = x.PushBatch(w.streams[in.strm[i]], own.vals[i:j]); err != nil {
					return
				}
				i = j
			}
			if err = x.Barrier(); err != nil {
				return
			}
			for _, sub := range plain {
				for {
					k := sub.NextBatch(drainBuf)
					if k == 0 {
						break
					}
					embOut += int64(k)
					for _, t := range drainBuf[:k] {
						tuple.Recycle(t)
					}
				}
			}
			// Frames cross the relay goroutines after the barrier returns.
			for more := len(fans) > 0; more; more = inFlight() > 0 {
				for _, sub := range fans {
					for {
						f, ok := sub.TryNextFrame()
						if !ok {
							break
						}
						embOut += int64(f.Rows())
						f.Release()
					}
				}
				runtime.Gosched()
			}
		})
		if err != nil {
			return err
		}
		spans.end(root)
	}

	put("ingress.parse_ns_per_row", parse.per(), "ns")
	put("fjord.hop_ns_per_row", hopR.per(), "ns")
	put("expr.prog.select_ns_per_row", selR.per(), "ns")
	put("operator.gfilter_probe_ns_per_row", gfR.per(), "ns")
	put("cacq.engine_ns_per_row", engR.per(), "ns")
	put("stem.build_ns_per_row", build.per(), "ns")
	put("stem.probe_ns_per_probe", probeR.per(), "ns")
	put("stem.evict_ns_per_row", evict.per(), "ns")
	put("operator.winagg_ns_per_row", aggR.per(), "ns")
	put("egress.deliver_ns_per_row", deliver.per(), "ns")
	put("tuple.append_text_ns_per_row", text.per(), "ns")
	put("fanout.publish_ns_per_row", pub1.per(), "ns")
	put("fanout.publish_ns_per_row_64", pub64.per(), "ns")
	put("executor.embedded_ns_per_row", emb.per(), "ns")
	// The executor's own share: what the embedded path costs beyond the
	// engine and the egress hop of the rows it emitted (a frame publish for
	// SUBSCRIBE cursors, a ring hop for plain ones).
	out := deliver.per()
	if len(fans) > 0 {
		out = pub1.per()
	}
	put("executor.self_ns_per_row", emb.per()-engR.per()-out*float64(embOut)/float64(n), "ns")
	// What no rung explains: sessions, per-row cursor writes, syscalls,
	// the scheduler. Reported, not hidden.
	put("server.remainder_us_per_row", cpuUsPerRow-emb.per()/1e3-parse.per()/1e3, "us")
	return nil
}

func sqlOf(qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.sql
	}
	return out
}

// ladderExecutor builds an executor over w's streams, sampler off.
func ladderExecutor(w *workload) (*executor.Executor, error) {
	cat, _, err := ladderCatalog(w)
	if err != nil {
		return nil, err
	}
	return executor.New(cat, executor.Options{SampleInterval: -1}), nil
}

// submitAll registers every standing query the way the server does:
// SUBSCRIBE statements through the fan-out tree, the rest on plain rings.
func submitAll(x *executor.Executor, qs []query) ([]*egress.Subscription, []*fanout.Subscriber, error) {
	var plain []*egress.Subscription
	var fans []*fanout.Subscriber
	for _, q := range qs {
		s, subscribe, err := selectOf(q.sql)
		if err != nil {
			return nil, nil, err
		}
		if subscribe {
			_, sub, err := x.SubmitFanout(s, fanout.SubOptions{QoS: fjord.QoS{Policy: fjord.Block, BlockTimeout: 10 * time.Second}})
			if err != nil {
				return nil, nil, err
			}
			fans = append(fans, sub)
			continue
		}
		_, sub, err := x.Submit(s)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, sub)
	}
	return plain, fans, nil
}
