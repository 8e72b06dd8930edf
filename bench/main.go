// Command bench is the repo's benchmark: it runs cmd/tcqd as a child
// process with default flags and drives it over loopback TCP, one Wrapper
// connection in and one FrontEnd connection out, measuring from outside.
// See README.md in this directory.
//
//	go run ./bench                               # all four workloads, tracing off
//	go run ./bench -workload window-join -trace 1
//	go run ./bench -runs 5 -out a.json ; go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// hostInfo is recorded in every result file: numbers from different
// boxes, Go versions or core counts are not comparable.
type hostInfo struct {
	NumCPU          int    `json:"nproc"`
	GenGOMAXPROCS   int    `json:"generator_gomaxprocs"`
	ChildGOMAXPROCS int    `json:"child_gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Kernel          string `json:"kernel"`
	Commit          string `json:"commit"`
}

type resultFile struct {
	Host    hostInfo       `json:"host"`
	Seed    int64          `json:"seed"`
	Seconds float64        `json:"seconds"`
	Rates   map[string]int `json:"paced_rows_per_s"`
	Runs    []*runResult   `json:"runs"`
}

func host(root string, procs int) hostInfo {
	h := hostInfo{
		NumCPU:          runtime.NumCPU(),
		GenGOMAXPROCS:   runtime.GOMAXPROCS(0),
		ChildGOMAXPROCS: procs,
		GoVersion:       runtime.Version(),
		Kernel:          "unknown",
		Commit:          "unknown",
	}
	if procs <= 0 {
		h.ChildGOMAXPROCS = runtime.NumCPU() // the child's own default
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// cleanup is what must not outlive the harness: the one child alive at a
// time and the scratch directory. It runs on normal exit and on
// SIGINT/SIGTERM.
var cleanup struct {
	sync.Mutex
	stop func() // kills the live child; nil when there is none
	dir  string
}

// trackTarget makes t the child that cleanup kills, until t is stopped.
func trackTarget(t *target) *target {
	stop := t.stop
	t.stop = func() {
		stop()
		cleanup.Lock()
		cleanup.stop = nil
		cleanup.Unlock()
	}
	cleanup.Lock()
	cleanup.stop = stop
	cleanup.Unlock()
	return t
}

func runCleanup() {
	cleanup.Lock()
	stop, dir := cleanup.stop, cleanup.dir
	cleanup.stop, cleanup.dir = nil, ""
	cleanup.Unlock()
	if stop != nil {
		stop()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 20, "how long one run measures: a tenth warm-up, six tenths paced, the rest flood")
		trace        = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics (scraped /statz and the in-process ladder); a path: as 1, and write the spans there")
		procs        = flag.Int("procs", 0, "GOMAXPROCS of the tcqd child (0: its default)")
		runs         = flag.Int("runs", 1, "repeat each workload this many times")
		out          = flag.String("out", "", "write every run, with the host block, to this JSON file")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{w}
	}
	traced := *trace != "0" && *trace != ""

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer runCleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanup()
		os.Exit(130)
	}()

	// Everything the benchmark writes stays under .bench_build in the
	// checkout, which .gitignore names.
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cleanup.Lock()
	cleanup.dir = dir
	cleanup.Unlock()
	bin, err := buildDaemon(root, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	launch := func(withMetrics bool) (*target, error) {
		t, err := launchDaemon(bin, *procs, withMetrics)
		if err != nil {
			return nil, err
		}
		return trackTarget(t), nil
	}

	file := resultFile{Host: host(root, *procs), Seed: *seed, Seconds: *seconds, Rates: map[string]int{}}
	for _, w := range workloads {
		file.Rates[w.name] = w.rate
	}
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	ok := true
	var last *runResult
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(&runOptions{
				w: w, seed: *seed, plan: planFor(w, *seconds), rate: float64(w.rate),
				traced: traced, setups: setupRepeats, launch: launch, spans: spans,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Print(res)
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if traced && *trace != "1" {
		if err := spans.write(*trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if len(selected) == 1 && *runs == 1 {
		fmt.Println(contractLine(last, spec))
	}
	if !ok {
		return 1
	}
	return 0
}

// contractLine is the one-object summary a single run ends with: the
// metrics BENCHMARK.json lists end to end for an untraced run, the ones it
// lists per layer for a traced.
func contractLine(r *runResult, spec *benchmarkSpec) string {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	listed := spec.EndToEnd
	if r.Traced {
		listed = spec.PerLayer
	}
	for _, m := range listed {
		line.Metrics[m.Name] = r.Metrics[m.Name]
	}
	b, _ := json.Marshal(line)
	return string(b)
}
