// tcqbench regenerates the experiment tables of EXPERIMENTS.md: each
// experiment (E1–E10) reproduces one performance claim of the
// TelegraphCQ paper or its companion systems. See DESIGN.md §4 for the
// experiment ↔ claim ↔ module map.
//
// Usage:
//
//	tcqbench               # run everything at scale 1
//	tcqbench -run E3,E6    # selected experiments
//	tcqbench -scale 4      # more tuples, smoother numbers
//	tcqbench -shards 1,8   # shard counts for the sharded E10 rows
//	tcqbench -json out/    # also write BENCH_<id>.json per experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"telegraphcq/internal/experiments"
)

// benchResult is the machine-readable form of one experiment table,
// written as BENCH_<id>.json for harnesses diffing runs over time.
type benchResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Scale   int        `json:"scale"`
	// Host parallelism context: sharded rows only show speedup when
	// GOMAXPROCS gives the shards real cores to run on.
	Shards     []int  `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	ElapsedMs  int64  `json:"elapsed_ms"`
	Timestamp  string `json:"timestamp"` // RFC 3339
}

// parseShards parses the -shards comma list, enforcing the same bounds
// tcqd -shards does.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > 64 {
			return nil, fmt.Errorf("-shards: %q is not a shard count in [1,64]", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	scale := flag.Int("scale", 1, "workload scale factor")
	shards := flag.String("shards", "1,2,4", "comma-separated eddy shard counts for the sharded experiment rows")
	jsonDir := flag.String("json", "", "directory to write BENCH_<id>.json results (empty disables)")
	flag.Parse()

	sweep, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	experiments.ShardSweep = sweep

	ids := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12"}
	if *run != "" {
		ids = ids[:0]
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	var tables []*experiments.Table
	var elapsed []time.Duration
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		tab := experiments.ByID(id, *scale)
		if tab == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want E1..E10, E12)\n", id)
			os.Exit(2)
		}
		tables = append(tables, tab)
		elapsed = append(elapsed, time.Since(t0))
	}
	for i, tab := range tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(tab.Render())
	}
	fmt.Printf("\n%d experiment(s) in %v (scale %d)\n", len(tables), time.Since(start).Round(time.Millisecond), *scale)

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		now := time.Now().UTC().Format(time.RFC3339)
		for i, tab := range tables {
			res := benchResult{
				ID: tab.ID, Title: tab.Title, Claim: tab.Claim,
				Columns: tab.Columns, Rows: tab.Rows, Notes: tab.Notes,
				Scale: *scale, Shards: sweep,
				GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				ElapsedMs: elapsed[i].Milliseconds(), Timestamp: now,
			}
			data, err := json.MarshalIndent(&res, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+tab.ID+".json")
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}
