// Introspection: the executor reports its internal state through two
// channels. Pull-based telemetry collectors feed the /metrics and
// /statz endpoints; a periodic sampler feeds the same observations into
// synthetic *system streams* (tcq_operators, tcq_queues, tcq_queries)
// registered in the catalog, so users can point ordinary continuous
// queries at the engine's own state — the introspection that drives the
// paper's adaptivity, made queryable with the paper's own query model.
//
// The engine's counters are plain fields owned by each engine host;
// scrapers never touch them. Instead a scrape sends a ctlStats envelope
// down the EO's control channel (the same mechanism Barrier uses) and
// the EO assembles an eoSnapshot from snapshots each host takes on its
// own thread. The hot path therefore pays nothing — no atomics, no
// locks — for telemetry.
package executor

import (
	"strconv"
	"time"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/stem"
	"telegraphcq/internal/telemetry"
	"telegraphcq/internal/tuple"
)

// System stream names.
const (
	StreamOperators   = "tcq_operators"
	StreamQueues      = "tcq_queues"
	StreamQueries     = "tcq_queries"
	StreamSources     = "tcq_sources"
	StreamSubscribers = "tcq_subscribers"
	StreamShards      = "tcq_shards"
	StreamCluster     = "tcq_cluster"
)

// SourceStat is one wrapper-side source's health as reported into the
// tcq_sources system stream and /metrics: the supervision state machine
// (up / degraded / down), its restart and failure history, and rows
// delivered. The ingress layer supplies these via SetSourceStats; the
// executor deliberately knows nothing about wrappers beyond this shape.
type SourceStat struct {
	Name     string
	State    string // "up", "degraded", "down"
	Restarts int64  // reconnect attempts that succeeded
	Failures int64  // run attempts that ended in error
	Rows     int64  // rows delivered across all attempts
	LastErr  string // most recent failure, "" when none
}

// SetSourceStats installs the callback the sampler and the metrics
// collector use to observe wrapper-side source health (nil clears it).
func (x *Executor) SetSourceStats(fn func() []SourceStat) {
	if fn == nil {
		x.sourceStats.Store(nil)
		return
	}
	x.sourceStats.Store(&fn)
}

func (x *Executor) sourceStatsSnapshot() []SourceStat {
	if fn := x.sourceStats.Load(); fn != nil {
		return (*fn)()
	}
	return nil
}

// ClusterStat is one row of the tcq_cluster system stream: networked
// Flux health as observed by a coordinator (internal/cluster). Node
// rows carry the per-worker fields (State, Primaries, Secondaries,
// Processed); a summary row with Node == "coordinator" carries the
// coordinator-wide delivery and failover counters. Like SourceStat,
// the producer installs a callback — the executor knows nothing about
// the cluster beyond this shape, so the dependency points outward.
type ClusterStat struct {
	Node        string
	Addr        string
	State       string // "up", "disconnected", "dead"; "" on the summary row
	Primaries   int64  // buckets this node is primary for
	Secondaries int64  // buckets this node is secondary for
	Processed   int64  // entries the node acked

	// Coordinator-wide counters (summary row only).
	Routed      int64
	Acked       int64
	Retransmits int64
	Promotions  int64
	Moves       int64
	Repairs     int64
	BucketsLost int64
	DetectMs    int64 // last failure-detection latency
}

// SetClusterStats installs the callback the sampler and the metrics
// collector use to observe networked-Flux cluster health (nil clears
// it). Mirrors SetSourceStats.
func (x *Executor) SetClusterStats(fn func() []ClusterStat) {
	if fn == nil {
		x.clusterStats.Store(nil)
		return
	}
	x.clusterStats.Store(&fn)
}

func (x *Executor) clusterStatsSnapshot() []ClusterStat {
	if fn := x.clusterStats.Load(); fn != nil {
		return (*fn)()
	}
	return nil
}

// eoSnapshot is one Execution Object's state as observed by its own
// thread in response to a ctlStats envelope. Everything inside is a
// copy; callers may read it freely while the EO keeps running.
type eoSnapshot struct {
	eddy    eddy.Stats
	modules []eddy.ModuleStats
	engine  cacq.EngineStats
	filters []filterSnapshot
	stems   []stemSnapshot
	queries []cacq.QueryInfo
	// shards holds the per-host detail when the EO has hash shards (empty
	// otherwise); the top-level fields above are then the sum over hosts.
	shards []shardSnapshot
}

// shardSnapshot is one engine host's state within a sharded EO's merged
// snapshot.
type shardSnapshot struct {
	id         int
	catchAll   bool
	eddy       eddy.Stats
	engine     cacq.EngineStats
	stats      shardStats
	ingressLen int
	egressLen  int
}

type filterSnapshot struct {
	name    string
	queries int
	factors int
}

type stemSnapshot struct {
	name  string
	size  int
	stats stem.Stats
}

// snapshotEngine copies one CACQ engine's observable state; it must run
// on the goroutine that owns the engine (eddyShard.handle).
func snapshotEngine(e *cacq.Engine) *eoSnapshot {
	ed := e.Eddy()
	s := &eoSnapshot{
		eddy:    ed.Stats(),
		modules: ed.ModuleStatsSnapshot(),
		engine:  e.Stats(),
	}
	in := e.Introspect()
	s.queries = in.Queries
	for _, gf := range in.Filters {
		s.filters = append(s.filters, filterSnapshot{
			name: gf.Name(), queries: gf.QueryCount(), factors: gf.FactorCount()})
	}
	for _, sm := range in.Stems {
		s.stems = append(s.stems, stemSnapshot{
			name: sm.Name(), size: sm.SteM().Size(), stats: sm.SteM().Stats()})
	}
	return s
}

// mergeSnapshot folds one host's snapshot into the EO-level one: shard
// rows append; counters sum; shared-state views merge by module name (a shardable
// query's filters and SteMs exist on every hash shard — SteM sizes and
// stats sum, grouped-filter registration counts agree so the max is the
// true value); per-query delivery counts sum by query id.
func mergeSnapshot(dst, src *eoSnapshot) {
	dst.shards = append(dst.shards, src.shards...)
	dst.eddy = dst.eddy.Add(src.eddy)
	dst.modules = eddy.MergeModuleStats(dst.modules, src.modules)
	dst.engine.Pushed += src.engine.Pushed
	dst.engine.Delivered += src.engine.Delivered
	for _, gf := range src.filters {
		found := false
		for i := range dst.filters {
			if dst.filters[i].name == gf.name {
				if gf.queries > dst.filters[i].queries {
					dst.filters[i].queries = gf.queries
				}
				if gf.factors > dst.filters[i].factors {
					dst.filters[i].factors = gf.factors
				}
				found = true
				break
			}
		}
		if !found {
			dst.filters = append(dst.filters, gf)
		}
	}
	for _, sm := range src.stems {
		found := false
		for i := range dst.stems {
			if dst.stems[i].name == sm.name {
				dst.stems[i].size += sm.size
				dst.stems[i].stats.Builds += sm.stats.Builds
				dst.stems[i].stats.Probes += sm.stats.Probes
				dst.stems[i].stats.Matches += sm.stats.Matches
				dst.stems[i].stats.Evicted += sm.stats.Evicted
				dst.stems[i].stats.IndexProbes += sm.stats.IndexProbes
				dst.stems[i].stats.ScanProbes += sm.stats.ScanProbes
				found = true
				break
			}
		}
		if !found {
			dst.stems = append(dst.stems, sm)
		}
	}
	for _, qi := range src.queries {
		found := false
		for i := range dst.queries {
			if dst.queries[i].ID == qi.ID {
				dst.queries[i].Delivered += qi.Delivered
				found = true
				break
			}
		}
		if !found {
			dst.queries = append(dst.queries, qi)
		}
	}
}

// registerSystemStreams creates the introspection streams in the
// catalog (best effort: a shared catalog may already have them).
func (x *Executor) registerSystemStreams() {
	col := func(name string, k tuple.Kind) tuple.Column { return tuple.Column{Name: name, Kind: k} }
	streams := []struct {
		name string
		cols []tuple.Column
	}{
		{StreamOperators, []tuple.Column{
			col("eo", tuple.KindInt), col("module", tuple.KindString),
			col("routed", tuple.KindInt), col("passed", tuple.KindInt),
			col("dropped", tuple.KindInt), col("consumed", tuple.KindInt),
			col("bounced", tuple.KindInt), col("work_ns", tuple.KindInt),
			col("selectivity", tuple.KindFloat), col("cost_ns", tuple.KindFloat),
		}},
		{StreamQueues, []tuple.Column{
			col("eo", tuple.KindInt), col("queue", tuple.KindString),
			col("depth", tuple.KindInt), col("cap", tuple.KindInt),
			col("enqueued", tuple.KindInt), col("dequeued", tuple.KindInt),
			col("enq_stalls", tuple.KindInt), col("deq_empty", tuple.KindInt),
		}},
		{StreamQueries, []tuple.Column{
			col("query", tuple.KindInt), col("delivered", tuple.KindInt),
			col("pending", tuple.KindInt), col("dropped", tuple.KindInt),
			col("state", tuple.KindString),
		}},
		{StreamSources, []tuple.Column{
			col("source", tuple.KindString), col("state", tuple.KindString),
			col("restarts", tuple.KindInt), col("failures", tuple.KindInt),
			col("rows", tuple.KindInt), col("last_error", tuple.KindString),
		}},
		// One row per cluster node plus a "coordinator" summary row with
		// the failover counters (networked Flux, internal/cluster).
		{StreamCluster, []tuple.Column{
			col("node", tuple.KindString), col("addr", tuple.KindString),
			col("state", tuple.KindString),
			col("primaries", tuple.KindInt), col("secondaries", tuple.KindInt),
			col("processed", tuple.KindInt),
			col("routed", tuple.KindInt), col("acked", tuple.KindInt),
			col("retransmits", tuple.KindInt), col("promotions", tuple.KindInt),
			col("moves", tuple.KindInt), col("repairs", tuple.KindInt),
			col("lost", tuple.KindInt), col("detect_ms", tuple.KindInt),
		}},
		// One row per engine host of each EO that has hash shards (no
		// rows for an EO that is only its inline catch-all).
		{StreamShards, []tuple.Column{
			col("eo", tuple.KindInt), col("shard", tuple.KindInt),
			col("catch_all", tuple.KindInt),
			col("ingress", tuple.KindInt), col("fwd_out", tuple.KindInt),
			col("fwd_in", tuple.KindInt), col("fwd_dropped", tuple.KindInt),
			col("egress", tuple.KindInt),
			col("admitted", tuple.KindInt), col("outputs", tuple.KindInt),
			col("ingress_depth", tuple.KindInt), col("egress_depth", tuple.KindInt),
		}},
		// One aggregate row per fan-out query (not per subscriber — at
		// 100k subscribers, per-subscriber rows would be a cardinality
		// bomb; per-subscriber detail lives on the Subscriber itself).
		{StreamSubscribers, []tuple.Column{
			col("query", tuple.KindInt), col("subs", tuple.KindInt),
			col("stages", tuple.KindInt), col("frames", tuple.KindInt),
			col("rows", tuple.KindInt), col("offered", tuple.KindInt),
			col("shed", tuple.KindInt), col("consumed", tuple.KindInt),
			col("dedup", tuple.KindInt), col("replayed", tuple.KindInt),
			col("pending", tuple.KindInt), col("live_encodes", tuple.KindInt),
			col("replay_encodes", tuple.KindInt),
		}},
	}
	for _, s := range streams {
		_, _ = x.cat.CreateSystemStream(s.name, s.cols)
	}
}

// startSampler runs SampleSystemStreams on a fixed period until Close.
func (x *Executor) startSampler(interval time.Duration) {
	x.samplerStop = make(chan struct{})
	x.samplerDone = make(chan struct{})
	stop, done := x.samplerStop, x.samplerDone
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				x.SampleSystemStreams()
			}
		}
	}()
}

// SampleSystemStreams pushes one batch of introspection rows into the
// system streams. Cheap when nothing subscribes: Push is a no-op for
// streams no EO feeds on, so an idle system pays only the snapshot.
func (x *Executor) SampleSystemStreams() {
	x.mu.Lock()
	eos := append([]*execObject(nil), x.eos...)
	x.mu.Unlock()

	for _, eo := range eos {
		s := eo.ask(envelope{ctl: ctlStats}).snap
		if s == nil {
			continue
		}
		eoID := int64(eo.idx)
		for _, ms := range s.modules {
			_, _ = x.Push(StreamOperators, []tuple.Value{
				tuple.Int(eoID), tuple.String(ms.Name),
				tuple.Int(ms.Routed), tuple.Int(ms.Passed),
				tuple.Int(ms.Dropped), tuple.Int(ms.Consumed),
				tuple.Int(ms.Bounced), tuple.Int(ms.WorkNs),
				tuple.Float(ms.Selectivity()), tuple.Float(ms.CostNs()),
			})
		}
		// One row per ingress edge. Data counters advance per tuple even
		// when the edge moves batches, so these rows read the same
		// whether or not producers vectorize.
		qs := eo.data.Stats()
		_, _ = x.Push(StreamQueues, []tuple.Value{
			tuple.Int(eoID), tuple.String("ingress"),
			tuple.Int(int64(eo.data.Len())), tuple.Int(int64(eo.data.Cap())),
			tuple.Int(qs.Enqueued), tuple.Int(qs.Dequeued),
			tuple.Int(qs.EnqueueFails), tuple.Int(qs.DequeueEmpty),
		})
		cs := eo.ctl.Stats()
		_, _ = x.Push(StreamQueues, []tuple.Value{
			tuple.Int(eoID), tuple.String("control"),
			tuple.Int(int64(eo.ctl.Len())), tuple.Int(int64(eo.ctl.Cap())),
			tuple.Int(cs.Enqueued), tuple.Int(cs.Dequeued),
			tuple.Int(cs.EnqueueFails), tuple.Int(cs.DequeueEmpty),
		})
		for _, qi := range s.queries {
			var pending, dropped int64
			// The hub only knows externally subscribed queries; internal
			// ones report zero backlog.
			for _, sub := range x.hub.Subscriptions() {
				if sub.ID == qi.ID {
					pending, dropped = int64(sub.Len()), sub.Dropped()
					break
				}
			}
			_, _ = x.Push(StreamQueries, []tuple.Value{
				tuple.Int(int64(qi.ID)), tuple.Int(qi.Delivered),
				tuple.Int(pending), tuple.Int(dropped),
				tuple.String("running"),
			})
		}
		for _, sh := range s.shards {
			catchAll := int64(0)
			if sh.catchAll {
				catchAll = 1
			}
			_, _ = x.Push(StreamShards, []tuple.Value{
				tuple.Int(eoID), tuple.Int(int64(sh.id)), tuple.Int(catchAll),
				tuple.Int(sh.stats.Ingress), tuple.Int(sh.stats.FwdOut),
				tuple.Int(sh.stats.FwdIn), tuple.Int(sh.stats.FwdDrop),
				tuple.Int(sh.stats.Egress),
				tuple.Int(sh.eddy.Admitted), tuple.Int(sh.eddy.Outputs),
				tuple.Int(int64(sh.ingressLen)), tuple.Int(int64(sh.egressLen)),
			})
		}
	}

	// Quarantined queries no longer appear in any engine snapshot (their
	// EO is gone); report them from the executor's query table so the
	// failure is observable through the same stream.
	x.mu.Lock()
	var errored []int
	for id, rq := range x.queries {
		if rq.err != nil {
			errored = append(errored, id)
		}
	}
	x.mu.Unlock()
	for _, id := range errored {
		_, _ = x.Push(StreamQueries, []tuple.Value{
			tuple.Int(int64(id)), tuple.Int(0), tuple.Int(0), tuple.Int(0),
			tuple.String("errored"),
		})
	}

	// Wrapper-side source health (supervision state machine).
	for _, st := range x.sourceStatsSnapshot() {
		_, _ = x.Push(StreamSources, []tuple.Value{
			tuple.String(st.Name), tuple.String(st.State),
			tuple.Int(st.Restarts), tuple.Int(st.Failures),
			tuple.Int(st.Rows), tuple.String(st.LastErr),
		})
	}

	// Networked-Flux cluster health (coordinator-installed callback).
	for _, st := range x.clusterStatsSnapshot() {
		_, _ = x.Push(StreamCluster, []tuple.Value{
			tuple.String(st.Node), tuple.String(st.Addr),
			tuple.String(st.State),
			tuple.Int(st.Primaries), tuple.Int(st.Secondaries),
			tuple.Int(st.Processed),
			tuple.Int(st.Routed), tuple.Int(st.Acked),
			tuple.Int(st.Retransmits), tuple.Int(st.Promotions),
			tuple.Int(st.Moves), tuple.Int(st.Repairs),
			tuple.Int(st.BucketsLost), tuple.Int(st.DetectMs),
		})
	}

	// Fan-out delivery (one aggregate row per query's subscriber tree).
	for _, tr := range x.FanoutTrees() {
		st := tr.Stats()
		_, _ = x.Push(StreamSubscribers, []tuple.Value{
			tuple.Int(int64(st.Query)), tuple.Int(st.Subs),
			tuple.Int(st.Stages), tuple.Int(st.Published),
			tuple.Int(st.PublishedRows), tuple.Int(st.Offered),
			tuple.Int(st.Shed), tuple.Int(st.Consumed),
			tuple.Int(st.Dedup), tuple.Int(st.Replayed),
			tuple.Int(st.Pending), tuple.Int(st.LiveEncodes),
			tuple.Int(st.ReplayEncodes),
		})
	}
}

// registerCollectors wires the pull-based metrics: every scrape asks
// each EO for a snapshot over its control channel and emits one sample
// per counter. The hot paths pay nothing for this — all cost is at
// scrape time.
func (x *Executor) registerCollectors() {
	x.metrics.Register(func(emit telemetry.Emit) {
		x.mu.Lock()
		eos := append([]*execObject(nil), x.eos...)
		nq := len(x.queries)
		x.mu.Unlock()

		gauge := func(name, help string, v float64, labels ...telemetry.Label) {
			emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindGauge, Labels: labels, Value: v})
		}
		counter := func(name, help string, v int64, labels ...telemetry.Label) {
			emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Labels: labels, Value: float64(v)})
		}

		gauge("tcq_eos", "execution objects running", float64(len(eos)))
		gauge("tcq_queries_active", "standing continuous queries", float64(nq))

		x.mu.Lock()
		quarantines := x.quarantines
		x.mu.Unlock()
		counter("tcq_eo_quarantined_total", "EOs retired after an operator panic", quarantines)

		// Per-stream QoS shed accounting (overflow policy outcomes).
		x.qstats.Range(func(k, v any) bool {
			qs := v.(*streamQoS)
			lS := telemetry.L("stream", k.(string))
			counter("tcq_stream_shed_total", "tuples lost at EO ingress under the stream's overflow policy", qs.shed.Load(), lS)
			counter("tcq_stream_block_timeouts_total", "block-policy waits that expired", qs.blockTimeouts.Load(), lS)
			return true
		})

		// Wrapper-side source health (supervision state machine).
		for _, st := range x.sourceStatsSnapshot() {
			lSrc := telemetry.L("source", st.Name)
			up := 0.0
			switch st.State {
			case "up":
				up = 1
			case "degraded":
				up = 0.5
			}
			gauge("tcq_source_up", "source health (1 up, 0.5 degraded, 0 down)", up, lSrc)
			counter("tcq_source_restarts_total", "successful source reconnects", st.Restarts, lSrc)
			counter("tcq_source_failures_total", "source run attempts that failed", st.Failures, lSrc)
			counter("tcq_source_rows_total", "rows delivered by the source", st.Rows, lSrc)
		}

		// Networked-Flux cluster health (coordinator-installed callback):
		// per-node gauges plus the coordinator summary row's counters.
		for _, st := range x.clusterStatsSnapshot() {
			if st.Node == "coordinator" {
				counter("tcq_cluster_routed_total", "entries routed to the cluster", st.Routed)
				counter("tcq_cluster_acked_total", "entries acknowledged by primaries", st.Acked)
				counter("tcq_cluster_retransmits_total", "entries re-sent after reconnect or promotion", st.Retransmits)
				counter("tcq_cluster_promotions_total", "secondaries promoted after a primary death", st.Promotions)
				counter("tcq_cluster_moves_total", "online bucket handoffs", st.Moves)
				counter("tcq_cluster_repairs_total", "replication repairs after failover", st.Repairs)
				counter("tcq_cluster_buckets_lost_total", "buckets restarted empty (no replica survived)", st.BucketsLost)
				gauge("tcq_cluster_detect_ms", "last failure-detection latency", float64(st.DetectMs))
				continue
			}
			lN := telemetry.L("node", st.Node)
			up := 0.0
			switch st.State {
			case "up":
				up = 1
			case "disconnected":
				up = 0.5
			}
			gauge("tcq_cluster_node_up", "cluster node health (1 up, 0.5 disconnected, 0 dead)", up, lN)
			gauge("tcq_cluster_node_primaries", "buckets the node is primary for", float64(st.Primaries), lN)
			gauge("tcq_cluster_node_secondaries", "buckets the node is secondary for", float64(st.Secondaries), lN)
			counter("tcq_cluster_node_processed_total", "entries the node acked", st.Processed, lN)
		}

		for _, eo := range eos {
			lEO := telemetry.L("eo", strconv.Itoa(eo.idx))

			// Ingress Fjord queues (atomic counters on the queues
			// themselves; no EO round-trip needed). Counters advance per
			// tuple, not per batch, so vectorized and scalar producers
			// report identically.
			qs := eo.data.Stats()
			gauge("tcq_eo_queue_depth", "EO ingress data queue occupancy", float64(eo.data.Len()), lEO)
			gauge("tcq_eo_queue_cap", "EO ingress data queue capacity", float64(eo.data.Cap()), lEO)
			counter("tcq_eo_enqueued_total", "tuples accepted by the EO data queue", qs.Enqueued, lEO)
			counter("tcq_eo_dequeued_total", "tuples drained from the EO data queue", qs.Dequeued, lEO)
			counter("tcq_eo_enqueue_stalls_total", "push-side stalls (queue full)", qs.EnqueueFails, lEO)
			counter("tcq_eo_dequeue_empty_total", "pull-side stalls (queue empty)", qs.DequeueEmpty, lEO)
			counter("tcq_eo_shed_total", "tuples shed at EO ingress", eo.shed.Load(), lEO)
			cs := eo.ctl.Stats()
			gauge("tcq_eo_ctl_queue_depth", "EO control queue occupancy", float64(eo.ctl.Len()), lEO)
			counter("tcq_eo_ctl_enqueued_total", "control envelopes accepted", cs.Enqueued, lEO)
			counter("tcq_eo_ctl_dequeued_total", "control envelopes handled", cs.Dequeued, lEO)

			s := eo.ask(envelope{ctl: ctlStats}).snap
			if s == nil {
				continue
			}

			// Eddy totals.
			counter("tcq_eddy_admitted_total", "tuples admitted into routing", s.eddy.Admitted, lEO)
			counter("tcq_eddy_routed_total", "tuple-to-module routing decisions", s.eddy.Routed, lEO)
			counter("tcq_eddy_choose_total", "routing policy invocations", s.eddy.ChooseCalls, lEO)
			counter("tcq_eddy_outputs_total", "tuples completing all modules", s.eddy.Outputs, lEO)
			counter("tcq_eddy_dropped_total", "tuples dropped during routing", s.eddy.Dropped, lEO)

			// Per-module routing observations (the policy's raw material).
			for _, ms := range s.modules {
				lMod := telemetry.L("module", ms.Name)
				counter("tcq_module_routed_total", "tuples routed to the module", ms.Routed, lEO, lMod)
				counter("tcq_module_passed_total", "tuples the module passed", ms.Passed, lEO, lMod)
				counter("tcq_module_dropped_total", "tuples the module dropped", ms.Dropped, lEO, lMod)
				counter("tcq_module_consumed_total", "tuples the module consumed", ms.Consumed, lEO, lMod)
				counter("tcq_module_bounced_total", "tuples the module bounced", ms.Bounced, lEO, lMod)
				counter("tcq_module_work_ns_total", "cumulative module processing time", ms.WorkNs, lEO, lMod)
				gauge("tcq_module_selectivity", "estimated fraction of routed tuples surviving", ms.Selectivity(), lEO, lMod)
				gauge("tcq_module_cost_ns", "estimated processing nanoseconds per routed tuple", ms.CostNs(), lEO, lMod)
			}

			// Engine totals.
			counter("tcq_engine_pushed_total", "tuples pushed into the CACQ engine", s.engine.Pushed, lEO)
			counter("tcq_engine_delivered_total", "result rows delivered by the engine", s.engine.Delivered, lEO)

			// Per-host detail (EOs with hash shards only).
			gauge("tcq_eo_shards", "eddy shards hosting the EO's partitionable queries (1 = none beside the inline catch-all)", float64(eo.shardCount()), lEO)
			for _, sh := range s.shards {
				lSh := telemetry.L("shard", strconv.Itoa(sh.id))
				role := "hash"
				if sh.catchAll {
					role = "catchall"
				}
				lRole := telemetry.L("role", role)
				counter("tcq_shard_ingress_total", "tuples partitioned into the shard", sh.stats.Ingress, lEO, lSh, lRole)
				counter("tcq_shard_fwd_out_total", "tuples repartitioned to sibling shards", sh.stats.FwdOut, lEO, lSh, lRole)
				counter("tcq_shard_fwd_in_total", "tuples received over the exchange", sh.stats.FwdIn, lEO, lSh, lRole)
				counter("tcq_shard_fwd_dropped_total", "exchange forwards dropped at shutdown", sh.stats.FwdDrop, lEO, lSh, lRole)
				counter("tcq_shard_egress_total", "result rows merged from the shard", sh.stats.Egress, lEO, lSh, lRole)
				counter("tcq_shard_admitted_total", "tuples admitted into the shard's eddy", sh.eddy.Admitted, lEO, lSh, lRole)
				counter("tcq_shard_outputs_total", "tuples completing the shard's modules", sh.eddy.Outputs, lEO, lSh, lRole)
				gauge("tcq_shard_ingress_depth", "shard ingress ring occupancy", float64(sh.ingressLen), lEO, lSh, lRole)
				gauge("tcq_shard_egress_depth", "shard egress ring occupancy", float64(sh.egressLen), lEO, lSh, lRole)
			}

			// Shared state: grouped filters and SteMs.
			for _, gf := range s.filters {
				lF := telemetry.L("module", gf.name)
				gauge("tcq_gfilter_queries", "queries sharing the grouped filter", float64(gf.queries), lEO, lF)
				gauge("tcq_gfilter_factors", "boolean factors indexed by the grouped filter", float64(gf.factors), lEO, lF)
			}
			for _, sm := range s.stems {
				lS := telemetry.L("module", sm.name)
				gauge("tcq_stem_size", "tuples held in the SteM", float64(sm.size), lEO, lS)
				counter("tcq_stem_builds_total", "tuples built into the SteM", sm.stats.Builds, lEO, lS)
				counter("tcq_stem_probes_total", "probe operations against the SteM", sm.stats.Probes, lEO, lS)
				counter("tcq_stem_matches_total", "join matches produced by probes", sm.stats.Matches, lEO, lS)
				counter("tcq_stem_evicted_total", "tuples evicted by window movement", sm.stats.Evicted, lEO, lS)
				counter("tcq_stem_index_probes_total", "probes answered by the hash index", sm.stats.IndexProbes, lEO, lS)
				counter("tcq_stem_scan_probes_total", "probes requiring a full scan", sm.stats.ScanProbes, lEO, lS)
			}
			for _, qi := range s.queries {
				counter("tcq_query_delivered_total", "rows delivered to the query",
					qi.Delivered, telemetry.L("query", strconv.Itoa(qi.ID)))
			}
		}

		// Result-side Fjord queues (per external subscriber).
		for _, sub := range x.hub.Subscriptions() {
			lQ := telemetry.L("query", strconv.Itoa(sub.ID))
			gauge("tcq_result_queue_depth", "rows queued for the client", float64(sub.Len()), lQ)
			counter("tcq_result_dropped_total", "result rows shed (slow client)", sub.Dropped(), lQ)
		}

		// Fan-out delivery: per-query aggregates over the subscriber tree
		// (per-subscriber series would explode label cardinality at scale).
		for _, tr := range x.FanoutTrees() {
			st := tr.Stats()
			lQ := telemetry.L("query", strconv.Itoa(st.Query))
			gauge("tcq_subscriber_count", "live fan-out subscribers", float64(st.Subs), lQ)
			gauge("tcq_fanout_stages", "relay stages in the fan-out tree", float64(st.Stages), lQ)
			gauge("tcq_subscriber_pending", "frames buffered across subscriber rings", float64(st.Pending), lQ)
			counter("tcq_fanout_frames_total", "encoded frames published to the tree", st.Published, lQ)
			counter("tcq_fanout_rows_total", "result rows covered by published frames", st.PublishedRows, lQ)
			counter("tcq_fanout_encodes_total", "hot-path batch serializations (encode-once)", st.LiveEncodes, lQ)
			counter("tcq_fanout_replay_encodes_total", "cohort catch-up serializations", st.ReplayEncodes, lQ)
			counter("tcq_subscriber_offered_total", "frame offers across subscribers", st.Offered, lQ)
			counter("tcq_subscriber_shed_total", "frames lost to subscriber overflow policies", st.Shed, lQ)
			counter("tcq_subscriber_block_timeouts_total", "subscriber block-policy waits that expired", st.BlockTimeouts, lQ)
			counter("tcq_subscriber_consumed_total", "frames consumed by subscribers", st.Consumed, lQ)
			counter("tcq_subscriber_dedup_total", "frames skipped as replay duplicates", st.Dedup, lQ)
			counter("tcq_subscriber_replayed_total", "catch-up frames served from the spool", st.Replayed, lQ)
		}
	})
}
