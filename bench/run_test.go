package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/executor"
	"telegraphcq/internal/server"
)

// launchInProcess stands an in-process server.Server where a real run
// execs tcqd, so tier-1 exercises the driver and the checker without a
// child process.
func launchInProcess(withMetrics bool) (*target, error) {
	srv := server.New(executor.Options{})
	front, wrapper, err := srv.Start("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{front: front, wrapper: wrapper, stop: srv.Close}
	if withMetrics {
		if t.metrics, err = srv.StartMetrics("127.0.0.1:0"); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return t, nil
}

// Every workload, at a scale of a few thousand rows: all owed rows
// arrive and nothing else does. The traced path (scraping /statz, then
// the ladder) is covered once, on the workload that also covers SUBSCRIBE
// cursors, and there a run must produce exactly the metrics
// BENCHMARK.json lists.
func TestWorkloadsAgainstInProcessServer(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := &runOptions{
				w: w, seed: 5, rate: 8000, setups: 1, launch: launchInProcess,
				plan: phases{setup: blockRows, warm: blockRows, paced: 2 * blockRows, flood: 10 * blockRows},
			}
			if w == windowJoin {
				small := *w
				small.floodRate = 4096 // 2048 ladder rows
				o.w, o.traced, o.spans = &small, true, &spanLog{}
			}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Error(res.Notes)
			}
			if res.Attempted <= o.plan.total() {
				t.Errorf("attempted %d: no result rows were expected", res.Attempted)
			}
			listed := map[string]bool{}
			for _, m := range spec.EndToEnd {
				listed[m.Name] = true
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("end-to-end metric %s missing", m.Name)
				}
			}
			if !o.traced {
				return
			}
			for _, m := range spec.PerLayer {
				listed[m.Name] = true
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing from a traced run", m.Name)
				}
			}
			for name := range res.Metrics {
				if !listed[name] {
					t.Errorf("the harness emits %s, which BENCHMARK.json does not list", name)
				}
			}
			if self := o.spans.selfTimes(); self["batch"] <= 0 || self["cacq.engine"] <= 0 {
				t.Errorf("span self times missing: %v", self)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := o.spans.write(path); err != nil {
				t.Fatal(err)
			}
			if b, _ := os.ReadFile(path); !bytes.Contains(b, []byte(`"name":"stem.probe"`)) {
				t.Errorf("trace file lacks the stem.probe spans")
			}
		})
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the harness's is %s", i, w.Name, workloads[i].name)
		}
		// The frozen rate is a constant of the harness; BENCHMARK.json can
		// only state it in words, and must not state another.
		if i < len(workloads) && !strings.Contains(w.Why, fmt.Sprintf("at %d rows/s", workloads[i].rate)) {
			t.Errorf("BENCHMARK.json says of %s %q; the harness paces it at %d rows/s", w.Name, w.Why, workloads[i].rate)
		}
	}
}

// Every rung costs something, and the ladder reconciles: what the rungs
// explain plus the reported remainder is the daemon's CPU per row.
func TestLadderReconciles(t *testing.T) {
	t.Parallel()
	small := *widePassthrough
	small.floodRate = 4096 // 2048 ladder rows
	got := map[string]float64{}
	const cpu = 50.0
	if err := runLadder(&small, 2, &spanLog{}, cpu, func(name string, v float64, _ string) { got[name] = v }); err != nil {
		t.Fatal(err)
	}
	for name, v := range got {
		// The two differences may have either sign.
		if v <= 0 && name != "executor.self_ns_per_row" && name != "server.remainder_us_per_row" {
			t.Errorf("rung %s = %v, want a positive cost", name, v)
		}
	}
	sum := got["ingress.parse_ns_per_row"]/1e3 + got["executor.embedded_ns_per_row"]/1e3 + got["server.remainder_us_per_row"]
	if d := sum - cpu; d > 1e-9 || d < -1e-9 {
		t.Errorf("parse + embedded + remainder = %v us, want the daemon's %v", sum, cpu)
	}
}

// stallingSink accepts writes instantly except one, which it holds for
// `stall`; it notes when each row arrived.
type stallingSink struct {
	mu      sync.Mutex
	clk     clock
	in      *input
	stallAt int // the write that carries this row stalls
	stall   time.Duration
	next    int
	arrived []int64
	stalled bool
}

func (s *stallingSink) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := bytes.Count(b, []byte("\n"))
	if !s.stalled && s.next+rows > s.stallAt {
		s.stalled = true
		time.Sleep(s.stall)
	}
	at := s.clk.now()
	for i := 0; i < rows; i++ {
		s.arrived[s.next+i] = at
	}
	s.next += rows
	return len(b), nil
}

// Coordinated omission: when the path stalls for 200 ms, every row that
// fell due during the stall must be charged the part of the stall it sat
// through, because latency runs from the due time. Timing from the send
// instead would report those rows as instantaneous.
func TestStallIsChargedToEveryRowDueDuringIt(t *testing.T) {
	const (
		rate  = 5000.0
		n     = 3000 // 600 ms of schedule
		stall = 200 * time.Millisecond
	)
	in := generate(sharedSelect, 1, n)
	clk := clock{base: time.Now()}
	sink := &stallingSink{clk: clk, in: in, stallAt: 1000, stall: stall, arrived: make([]int64, n)}
	p := &pacer{w: sink, in: in, clk: clk, sentAt: make([]int64, n)}
	t0 := clk.now() + int64(5*time.Millisecond)
	sent := make(chan error)
	go func() { sent <- p.paced(0, n, t0, rate, nil) }()
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	stallStart := dueAt(sink.stallAt, 0, t0, rate)
	stallEnd := stallStart + int64(stall)
	charged, fromSend := 0, 0
	for i := 0; i < n; i++ {
		due := dueAt(i, 0, t0, rate)
		if due < stallStart+int64(10*time.Millisecond) || due > stallEnd-int64(10*time.Millisecond) {
			continue // well inside the stall only: the edges depend on the tick
		}
		if sink.arrived[i]-due >= stallEnd-due-int64(5*time.Millisecond) {
			charged++
		}
		if sink.arrived[i]-p.sentAt[i] >= int64(time.Millisecond) {
			fromSend++
		}
		if p.sentAt[i] < due {
			t.Fatalf("row %d sent %d ns before it was due", i, due-p.sentAt[i])
		}
	}
	want := int(rate * (stall - 20*time.Millisecond).Seconds())
	if charged < want-5 {
		t.Errorf("%d rows due during the stall were charged it, want about %d", charged, want)
	}
	if fromSend > 5 {
		t.Errorf("timing from the send charges %d rows; the test no longer shows the difference", fromSend)
	}
	// Outside the stall the generator keeps its schedule.
	for i := 0; i < sink.stallAt-50; i++ {
		if late := p.sentAt[i] - dueAt(i, 0, t0, rate); late > int64(20*time.Millisecond) {
			t.Errorf("row %d left %v late with no stall", i, time.Duration(late))
			break
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.7, 9.0, 4.4, 5.0}, 2.9000000000000004, 7.0},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{
		{Name: "cpu_us_per_row", Better: "lower", Bound: 0.05},
		{Name: "flood_rows_per_s", Better: "higher", Bound: 0.10},
		{Name: "lat_p50_ms", Better: "lower", Bound: 0.10},
	}}
	a := map[string]map[string][]float64{"w": {
		"cpu_us_per_row":       {10, 10.1, 9.9},
		"flood_rows_per_s":     {1000, 1010, 990},
		"lat_p50_ms":           {1, 2, 3}, // spread far beyond the bound
		"failed_frac":          {0, 0, 0},
		"ingress.parse_ns_row": {300},
	}}
	better := map[string]map[string][]float64{"w": {
		"cpu_us_per_row":       {9, 9.1, 8.9},
		"flood_rows_per_s":     {1100, 1110, 1090},
		"lat_p50_ms":           {1, 2, 3},
		"failed_frac":          {0, 0, 0},
		"ingress.parse_ns_row": {400},
	}}
	var out bytes.Buffer
	if compareSeries(&out, spec, a, better) {
		t.Errorf("an improvement was reported as a regression:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("a spread beyond the bound was not reported unresolved:\n%s", out.String())
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"cpu_us_per_row", []float64{11, 11.1, 10.9}},  // 10% more CPU against a 5% bound
		{"flood_rows_per_s", []float64{850, 860, 840}}, // 15% fewer rows against a 10% bound
		{"failed_frac", []float64{0.001, 0, 0.0001}},   // most runs fail
		{"failed_frac", []float64{0.001, 0, 0}},        // one run fails: the median is still 0
		{"cpu_us_per_row", nil},                        // every run of b was invalid
	} {
		worse := map[string]map[string][]float64{"w": {}}
		for k, v := range a["w"] {
			worse["w"][k] = v
		}
		worse["w"][c.name] = c.vals
		out.Reset()
		if !compareSeries(&out, spec, a, worse) {
			t.Errorf("%s = %v was not reported as a regression:\n%s", c.name, c.vals, out.String())
		}
	}
}

// An invalid run's metrics stay out of the medians; its failed_frac stays in.
func TestSeriesLeavesInvalidRunsOut(t *testing.T) {
	run := func(valid bool, cpu, failed float64) *runResult {
		return &runResult{Workload: "w", Valid: valid, Correct: failed == 0, Metrics: map[string]metric{
			"cpu_us_per_row": {Value: cpu, Unit: "us"},
			"failed_frac":    {Value: failed, Unit: "1"},
		}}
	}
	got, invalid := series(&resultFile{Runs: []*runResult{run(true, 10, 0), run(false, 99, 0.5), run(false, 98, 0)}})
	if cpu := got["w"]["cpu_us_per_row"]; len(cpu) != 1 || cpu[0] != 10 {
		t.Errorf("cpu_us_per_row = %v, want only the valid run's 10", cpu)
	}
	if ff := got["w"]["failed_frac"]; len(ff) != 3 || ff[1] != 0.5 {
		t.Errorf("failed_frac = %v, want all three runs'", ff)
	}
	if invalid["w"] != 2 {
		t.Errorf("invalid = %v, want 2 runs of w", invalid)
	}
}

// A daemon that dies, or loses a marker row, while the flood window is
// shut must end the flood with an error: no write is due that could.
func TestFloodGivesUpWhenTheFrontEndCloses(t *testing.T) {
	n := 2 * floodWindow
	in := generate(sharedSelect, 1, n)
	p := &pacer{w: io.Discard, in: in, clk: clock{base: time.Now()}, sentAt: make([]int64, n)}
	done := make(chan struct{})
	time.AfterFunc(20*time.Millisecond, func() { close(done) })
	finished := make(chan error, 1)
	go func() {
		_, err := p.flood(0, n, func() int { return 0 }, make(chan struct{}), done)
		finished <- err
	}()
	select {
	case err := <-finished:
		if err == nil {
			t.Error("flood sent every row although nothing was acknowledged")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flood hangs on a window that will never open")
	}
}
