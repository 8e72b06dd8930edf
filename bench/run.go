package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// plan is the number of input rows in each phase of a run; every phase is
// a whole number of marker blocks, so each ends on a marker row.
type phases struct{ setup, warm, paced, flood int }

func (p phases) total() int { return p.setup + p.warm + p.paced + p.flood }

// planFor splits a run that measures for about `seconds` seconds: a tenth
// warms up at the paced rate and is discarded, six tenths are the paced
// open loop, and the flood phase is sized to fill the rest at the seed's
// flood rate.
func planFor(w *workload, seconds float64) phases {
	blocks := func(rows float64) int {
		n := int(rows) / blockRows * blockRows
		if n < blockRows {
			n = blockRows
		}
		return n
	}
	return phases{
		setup: blockRows,
		warm:  blocks(0.1 * seconds * float64(w.rate)),
		paced: blocks(0.6 * seconds * float64(w.rate)),
		flood: blocks(0.3 * seconds * float64(w.floodRate)),
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Notes     []string          `json:"notes,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"latency_samples"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run times set-up; setup_s is their
// median, steadier than one process start.
const setupRepeats = 5

type runOptions struct {
	w      *workload
	seed   int64
	plan   phases
	rate   float64 // paced rows/s; the workload's frozen rate outside tests
	traced bool
	setups int // how many times set-up is timed; the last server runs the workload
	launch func(withMetrics bool) (*target, error)
	spans  *spanLog // non-nil: run the ladder too and record its spans here
}

// driver is one server under test with the run's two connections.
type driver struct {
	tgt     *target
	s       *session
	wr      *wrapperConn
	p       *pacer
	cursors map[int]int // cursor id -> index into the standing queries
}

func (d *driver) shutdown() {
	if d.s != nil {
		d.s.close()
	}
	if d.wr != nil {
		d.wr.close()
	}
	d.tgt.stop()
}

// setUp is the interval setup_s measures: start the server, create the
// streams, register every standing query, push the first block and see
// its marker come back.
func setUp(o *runOptions, in *input, qs []query, clk clock) (*driver, error) {
	tgt, err := o.launch(o.traced)
	if err != nil {
		return nil, err
	}
	d := &driver{tgt: tgt, cursors: map[int]int{}}
	fail := func(err error) (*driver, error) {
		d.shutdown()
		return nil, err
	}
	// Results are roughly as many bytes as the input; the arena grows if not.
	if d.s, err = dialSession(tgt.front, clk, len(in.buf)+1<<20); err != nil {
		return fail(err)
	}
	if d.wr, err = dialWrapper(tgt.wrapper); err != nil {
		return fail(err)
	}
	d.p = &pacer{w: d.wr.conn, in: in, clk: clk, sentAt: make([]int64, in.n())}
	if _, err := d.s.execAll(o.w.ddl); err != nil {
		return fail(err)
	}
	stmts := make([]string, len(qs))
	for i, q := range qs {
		stmts[i] = q.sql
	}
	replies, err := d.s.execAll(stmts)
	if err != nil {
		return fail(err)
	}
	for i, r := range replies {
		var id int
		if _, err := fmt.Sscanf(r.text, "cursor %d push", &id); err != nil {
			return fail(fmt.Errorf("%q: unexpected reply %q", stmts[i], r.text))
		}
		d.cursors[id] = i
		if qs[i].kind == kMarker {
			d.s.marker.Store(int64(id))
		}
	}
	if _, err := d.wr.conn.Write(in.buf[:in.off[o.plan.setup]]); err != nil {
		return fail(fmt.Errorf("wrapper write: %w", err))
	}
	if err := d.awaitAck(o.plan.setup, 10*time.Second); err != nil {
		return fail(err)
	}
	return d, nil
}

// awaitAck waits until the daemon has acknowledged `rows` input rows.
func (d *driver) awaitAck(rows int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for int(d.s.acked.Load()) < rows {
		select {
		case <-d.s.ackCh:
		case <-d.s.done:
			return fmt.Errorf("frontend connection lost at %d of %d rows acknowledged (%v)", d.s.acked.Load(), rows, d.s.err)
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				return fmt.Errorf("daemon acknowledged %d of %d rows within %v (%d input lines rejected)",
					d.s.acked.Load(), rows, timeout, d.wr.rejected.Load())
			}
		}
	}
	return nil
}

// quiesce waits until nothing has arrived for `quiet`.
func (d *driver) quiesce(quiet time.Duration) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		idle := time.Duration(d.p.clk.now() - d.s.lastRecv.Load())
		if idle >= quiet {
			return
		}
		time.Sleep(quiet - idle)
	}
}

// observation is what the harness can see from outside at one instant.
type observation struct {
	proc                 procSample
	bytesIn, rows, reads int64
	z                    *statz
}

func (d *driver) observe(scrape bool) (observation, error) {
	var ob observation
	var err error
	if ob.proc, err = readProc(d.tgt.pid); err != nil {
		return ob, err
	}
	ob.bytesIn, ob.rows, ob.reads = d.s.bytesIn.Load(), d.s.rowsIn.Load(), d.s.reads.Load()
	if scrape && d.tgt.metrics != "" {
		ob.z, err = scrapeStatz(d.tgt.metrics)
	}
	return ob, err
}

// churner is the shared-select side traffic: every 200 ms a fresh
// selection is submitted, and 100 ms later closed, on the connection that
// carries every other cursor. It runs on the sender goroutine's idle
// wake-ups.
type churner struct {
	s      *session
	seed   int64
	next   int64
	j      int
	isOpen bool
	closes int
}

const churnSlot = int64(100 * time.Millisecond)

func (c *churner) tick(now int64) error {
	if now < c.next {
		return nil
	}
	c.next += churnSlot
	if c.isOpen {
		select {
		case id := <-c.s.toClose:
			c.isOpen = false
			c.closes++
			return c.s.send([]string{fmt.Sprintf("CLOSE %d", id)}, []pend{{kind: pendChurnClose}})
		default:
			return nil // its cursor ack is still on the way; try next slot
		}
	}
	q := churnQuery(c.seed, c.j)
	c.isOpen = true
	c.j++
	return c.s.send([]string{q.sql}, []pend{{kind: pendChurnOpen, sent: now, j: c.j - 1}})
}

// closeRest closes, synchronously, what the paced phase left open, and
// returns how many statements that took.
func (c *churner) closeRest() int {
	n := 0
	for {
		select {
		case id := <-c.s.toClose:
			n++
			if _, err := c.s.exec(fmt.Sprintf("CLOSE %d", id)); err != nil {
				c.s.failures.Add(1)
			}
		default:
			return n
		}
	}
}

func sleepUntil(clk clock, at int64) {
	if d := time.Duration(at - clk.now()); d > 0 {
		time.Sleep(d)
	}
}

// traceSegments is how many equal slices the paced phase of a traced run
// is cut into; /statz is scraped only during the odd ones, so the CPU per
// row of the two halves gives the scraping overhead within one run.
const traceSegments = 6

const scrapeEvery = int64(500 * time.Millisecond)

// watchPaced samples the daemon from outside at the boundaries of the
// paced phase's segments: one segment in an untraced run; traceSegments in
// a traced one, with /statz scraped at both ends of the phase and every
// scrapeEvery inside the odd segments. boundary(k, of) is when segment k
// of `of` begins. It returns one observation per boundary and the largest
// value each gauge showed.
func (d *driver) watchPaced(o *runOptions, boundary func(k, of int) int64) ([]observation, map[string]float64, error) {
	segs := 1
	if o.traced {
		segs = traceSegments
	}
	clk := d.p.clk
	obs := make([]observation, segs+1)
	gauges := map[string]float64{}
	for k := 0; k <= segs; k++ {
		if o.traced && k > 0 && k%2 == 0 { // segment k-1, about to end, is an odd one
			for t := boundary(k-1, segs) + scrapeEvery; t < boundary(k, segs); t += scrapeEvery {
				sleepUntil(clk, t)
				if z, err := scrapeStatz(d.tgt.metrics); err == nil {
					for name, v := range z.max {
						if v > gauges[name] {
							gauges[name] = v
						}
					}
				}
			}
		}
		sleepUntil(clk, boundary(k, segs))
		var err error
		if obs[k], err = d.observe(o.traced && (k == 0 || k == segs)); err != nil {
			return nil, nil, err
		}
	}
	return obs, gauges, nil
}

func runWorkload(o *runOptions) (*runResult, error) {
	w := o.w
	in := generate(w, o.seed, o.plan.total())
	qs := standingQueries(w, o.seed)
	chk := newChecker(in, qs)
	clk := clock{base: time.Now()}

	var setups []float64
	var d *driver
	for k := 0; k < o.setups; k++ {
		t := time.Now()
		var err error
		if d, err = setUp(o, in, qs, clk); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < o.setups-1 {
			d.shutdown()
		}
	}
	defer d.shutdown()
	s := d.s

	// ---- warm + paced: one open loop at the frozen rate.
	first := o.plan.setup
	pacedFrom := first + o.plan.warm
	pacedTo := pacedFrom + o.plan.paced
	t0 := clk.now() + int64(10*time.Millisecond)
	due := func(i int) int64 { return dueAt(i, first, t0, o.rate) }
	var churn *churner
	var between func(int64) error
	if w.churn {
		churn = &churner{s: s, seed: o.seed, next: t0}
		between = churn.tick
	}
	sendErr := make(chan error, 1)
	go func() { sendErr <- d.p.paced(first, pacedTo, t0, o.rate, between) }()

	obs, gauges, err := d.watchPaced(o, func(k, of int) int64 { return due(pacedFrom + k*o.plan.paced/of) })
	if err != nil {
		return nil, fmt.Errorf("%s: observe: %w", w.name, err)
	}
	segs := len(obs) - 1
	if err := <-sendErr; err != nil {
		return nil, fmt.Errorf("%s: paced: %w", w.name, err)
	}
	if err := d.awaitAck(pacedTo, 30*time.Second); err != nil {
		return nil, fmt.Errorf("%s: paced: %w", w.name, err)
	}
	d.quiesce(100 * time.Millisecond)
	submits := 0
	if churn != nil {
		submits = churn.j + churn.closes + churn.closeRest()
	}

	// ---- flood: a fixed number of rows, closed loop with a window.
	floodStart := clk.now()
	blocked, err := d.p.flood(pacedTo, in.n(), func() int { return int(s.acked.Load()) }, s.ackCh, s.done)
	if err != nil {
		return nil, fmt.Errorf("%s: flood: %w", w.name, err)
	}
	floodSent := clk.now()
	if err := d.awaitAck(in.n(), 60*time.Second); err != nil {
		return nil, fmt.Errorf("%s: flood: %w", w.name, err)
	}
	d.quiesce(200 * time.Millisecond)

	// ---- the daemon's own books, then hang up.
	final, err := s.exec("SHOW STATS")
	if err != nil {
		return nil, fmt.Errorf("%s: SHOW STATS: %w", w.name, err)
	}
	books := parseStats(final.stats)
	end, err := readProc(d.tgt.pid)
	if err != nil {
		return nil, fmt.Errorf("%s: /proc: %w", w.name, err)
	}
	rejected := int(d.wr.rejected.Load())
	d.shutdown()
	if s.err != nil {
		return nil, fmt.Errorf("%s: frontend read: %w", w.name, s.err)
	}

	// ---- judge every row that came back.
	samples := 0
	slices := make([][]int64, latencySlices)
	unknown := 0
	s.lines(func(line []byte, at int64) {
		cur, payload, ok := rowCursor(line)
		if !ok || cur < 0 {
			return
		}
		if qi, ok := d.cursors[cur]; ok {
			if trig := chk.judge(qi, payload); trig >= pacedFrom && trig < pacedTo {
				k := (trig - pacedFrom) * latencySlices / o.plan.paced
				slices[k] = append(slices[k], at-due(trig))
				samples++
			}
		} else if j, ok := s.churnOf[cur]; ok {
			chk.judgeChurn(j, churnQuery(o.seed, j), payload)
		} else {
			unknown++
		}
	})
	late := make([]int64, 0, o.plan.paced)
	for i := pacedFrom; i < pacedTo; i++ {
		late = append(late, d.p.sentAt[i]-due(i))
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })

	lost := int(books.sum["tcq_stream_shed_total"] + books.sum["tcq_result_dropped_total"] +
		books.sum["tcq_subscriber_shed_total"] + books.sum["tcq_eo_quarantined_total"])
	res := &runResult{
		Workload:  w.name,
		Seed:      o.seed,
		Traced:    o.traced,
		Attempted: in.n() + chk.owed() + submits,
		Failed:    chk.bad + chk.missing() + unknown + rejected + int(s.failures.Load()) + lost,
		Samples:   samples,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	res.Valid = res.Correct
	if !res.Correct {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d failed: %d bad rows (first: %s), %d owed rows missing, %d rows on unknown cursors, %d input lines rejected, %d failed statements, %d rows the daemon counted lost",
			res.Failed, chk.bad, chk.firstBad, chk.missing(), unknown, rejected, s.failures.Load(), lost))
	}
	if samples == 0 {
		return nil, fmt.Errorf("%s: no result row was produced by a paced input row", w.name)
	}

	pacedRows := float64(o.plan.paced)
	cpuNs := float64(obs[segs].proc.cpuNs() - obs[0].proc.cpuNs())
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", median(setups), "s")
	p50, p99 := sliceQuantiles(slices)
	put("lat_p50_ms", p50, "ms")
	put("lat_p99_ms", p99, "ms")
	put("cpu_us_per_row", cpuNs/1e3/pacedRows, "us")
	put("flood_rows_per_s", chunkRate(s.ackAt, pacedTo, in.n(), floodStart), "1/s")
	put("rss_peak_mb", float64(end.hwmKB)/1024, "MB")
	put("failed_frac", float64(res.Failed)/float64(res.Attempted), "1")
	put("submit_p50_ms", 0, "ms")
	if len(s.submits) > 0 {
		sort.Slice(s.submits, func(i, j int) bool { return s.submits[i] < s.submits[j] })
		put("submit_p50_ms", ms(quantile(s.submits, 0.50)), "ms")
	}
	put("gen.late_p99_ms", ms(quantile(late, 0.99)), "ms")
	put("gen.blocked_frac", float64(blocked)/float64(floodSent-floodStart), "1")
	if lateP99 := ms(quantile(late, 0.99)); 2*lateP99 > p50 {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf(
			"generator lateness p99 %.3f ms exceeds half of lat_p50_ms %.3f ms: the box, not the daemon, set the latency",
			lateP99, p50))
	}

	// ---- what only the outside sees, over the paced phase.
	a, b := obs[0], obs[segs]
	put("ingress.rejected", float64(rejected), "count")
	put("server.bytes_in_per_row", float64(in.off[pacedTo]-in.off[pacedFrom])/pacedRows, "B")
	put("server.bytes_out_per_row", float64(b.bytesIn-a.bytesIn)/pacedRows, "B")
	put("server.rows_per_read", ratio(float64(b.rows-a.rows), float64(b.reads-a.reads)), "1")
	put("proc.cpu_sys_frac", ratio(float64(b.proc.stime-a.proc.stime), float64(b.proc.utime+b.proc.stime-a.proc.utime-a.proc.stime)), "1")
	put("proc.vol_ctx_switches_per_krow", float64(b.proc.volCtx-a.proc.volCtx)/pacedRows*1e3, "1")
	put("proc.threads", float64(b.proc.threads), "count")
	if o.traced {
		putScraped(put, a.z, b.z, gauges, pacedRows)
		var on, off float64
		for k := 0; k < segs; k++ {
			c := float64(obs[k+1].proc.cpuNs() - obs[k].proc.cpuNs())
			if k%2 == 1 {
				on += c
			} else {
				off += c
			}
		}
		put("trace.overhead_frac", ratio(on, off)-1, "1")
	}
	if o.spans != nil {
		if err := runLadder(w, o.seed, o.spans, cpuNs/1e3/pacedRows, put); err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
	}
	return res, nil
}

// putScraped turns two /statz scrapes, at the two ends of the paced
// phase, into per-row figures.
func putScraped(put func(string, float64, string), a, b *statz, gauges map[string]float64, rows float64) {
	delta := func(name string) float64 { return b.sum[name] - a.sum[name] }
	put("ingress.rows", delta("tcq_eo_enqueued_total"), "count")
	put("executor.eo_enqueue_stalls_per_krow", delta("tcq_eo_enqueue_stalls_total")/rows*1e3, "1")
	put("executor.eo_queue_depth_max", gauges["tcq_eo_queue_depth"], "count")
	put("executor.stream_shed", delta("tcq_stream_shed_total"), "count")
	put("eddy.routed_per_row", delta("tcq_eddy_routed_total")/rows, "1")
	put("eddy.outputs_per_row", delta("tcq_eddy_outputs_total")/rows, "1")
	put("operator.work_ns_per_row", delta("tcq_module_work_ns_total")/rows, "ns")
	put("stem.probes_per_row", delta("tcq_stem_probes_total")/rows, "1")
	put("stem.matches_per_probe", ratio(delta("tcq_stem_matches_total"), delta("tcq_stem_probes_total")), "1")
	put("stem.size_max", gauges["tcq_stem_size"], "count")
	put("stem.evicted_per_row", delta("tcq_stem_evicted_total")/rows, "1")
	put("egress.result_dropped", delta("tcq_result_dropped_total"), "count")
	put("egress.result_queue_depth_max", gauges["tcq_result_queue_depth"], "count")
	// Defined only where SUBSCRIBE is used; 0 elsewhere.
	put("fanout.rows_per_encode", ratio(delta("tcq_fanout_rows_total"), delta("tcq_fanout_encodes_total")), "1")
	put("fanout.subscriber_shed", delta("tcq_subscriber_shed_total"), "count")
	put("fanout.pending_max", gauges["tcq_subscriber_pending"], "count")
}

// latencySlices is how many equal slices of the paced phase the latency
// percentiles are taken over. lat_p50_ms and lat_p99_ms are the median
// slice's: one garbage-collection pause or scheduler hiccup lands in one
// slice and moves the whole-phase p99 by a factor between identical runs,
// which no bound could gate.
const latencySlices = 12

func sliceQuantiles(slices [][]int64) (p50, p99 float64) {
	var p50s, p99s []float64
	for _, sl := range slices {
		if len(sl) == 0 {
			continue
		}
		sort.Slice(sl, func(i, j int) bool { return sl[i] < sl[j] })
		p50s = append(p50s, ms(quantile(sl, 0.50)))
		p99s = append(p99s, ms(quantile(sl, 0.99)))
	}
	return median(p50s), median(p99s)
}

// floodChunks is how many equal chunks the flood phase's rate is taken
// over, for the same reason: flood_rows_per_s is the median chunk's rate,
// from marker acknowledgement to marker acknowledgement.
const floodChunks = 10

func chunkRate(ackAt []int64, from, to int, start int64) float64 {
	var rates []float64
	prev, prevRows := start, from
	for k := 1; k <= floodChunks; k++ {
		rows := from + (to-from)*k/floodChunks/blockRows*blockRows
		if rows == prevRows {
			continue
		}
		at := ackAt[rows/blockRows-1]
		rates = append(rates, float64(rows-prevRows)/(float64(at-prev)/1e9))
		prev, prevRows = at, rows
	}
	return median(rates)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// quantile reads the q-quantile off an ascending slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func (r *runResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d correct=%v valid=%v attempted=%d failed=%d latency_samples=%d\n",
		r.Workload, r.Seed, r.Correct, r.Valid, r.Attempted, r.Failed, r.Samples)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
