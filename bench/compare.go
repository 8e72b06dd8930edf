package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: which
// metrics are gated, which way is better, and by what share of the
// baseline's median each may worsen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does, so that spreads printed here
// are the ones the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// series collects one file's values per workload and metric. The metrics
// of an invalid run (a wrong result, or a generator that ran late) say
// nothing about the daemon and are left out; only its failed_frac counts.
// invalid is how many runs of each workload that happened to.
func series(f *resultFile) (out map[string]map[string][]float64, invalid map[string]int) {
	out = map[string]map[string][]float64{}
	invalid = map[string]int{}
	for _, r := range f.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		if !r.Valid {
			invalid[r.Workload]++
		}
		for name, m := range r.Metrics {
			if r.Valid || name == "failed_frac" {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, invalid
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (metric, workload) found in both files:
// both medians, the change, the bound, and a verdict for gated metrics.
// A gated metric whose run-to-run spread on either side exceeds its bound
// is unresolved, not unchanged. The exit code is non-zero on a regression,
// on a failed_frac that any run of b has above every run of a, and when b
// has no valid run of a gated metric that a has.
func compareFiles(w io.Writer, pathA, pathB string) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: host blocks differ (%+v vs %+v)\n", a.Host, b.Host)
	}
	sa, invalidA := series(a)
	sb, invalidB := series(b)
	for _, side := range []struct {
		path    string
		invalid map[string]int
	}{{pathA, invalidA}, {pathB, invalidB}} {
		for wl, n := range side.invalid {
			fmt.Fprintf(w, "note: %s: %d invalid run(s) of %s left out of the medians\n", side.path, n, wl)
		}
	}
	if compareSeries(w, spec, sa, sb) {
		return 1
	}
	return 0
}

func compareSeries(w io.Writer, spec *benchmarkSpec, sa, sb map[string]map[string][]float64) (regressed bool) {
	gated := map[string]metricSpec{}
	for _, m := range spec.EndToEnd {
		gated[m.Name] = m
	}
	fmt.Fprintf(w, "%-17s %-36s %12s %12s %8s %7s  %s\n", "workload", "metric", "a.median", "b.median", "change", "bound", "verdict")
	var workloadNames []string
	for name := range sa {
		workloadNames = append(workloadNames, name)
	}
	sort.Strings(workloadNames)
	for _, wl := range workloadNames {
		var names []string
		for name := range sa[wl] {
			if _, isGated := gated[name]; isGated || len(sb[wl][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Slice(names, func(i, j int) bool { // gated metrics first
			_, gi := gated[names[i]]
			_, gj := gated[names[j]]
			if gi != gj {
				return gi
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			va, vb := sa[wl][name], sb[wl][name]
			if len(vb) == 0 { // gated, and every run of b was invalid
				fmt.Fprintf(w, "%-17s %-36s %12.5g %12s %8s %7s  %s\n", wl, name, median(va), "-", "-", "-", "NO VALID RUN")
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			m, isGated := gated[name]
			bound, verdict := "-", ""
			switch {
			case name == "failed_frac":
				// Expected 0 in every run: one failing run in b is a
				// regression, however many clean ones surround it.
				if slices.Max(vb) > slices.Max(va) {
					verdict = "REGRESSION"
					regressed = true
				}
			case isGated:
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				worse := change
				if m.Better == "higher" {
					worse = -change
				}
				verdict = "ok"
				if spread(va) > m.Bound || spread(vb) > m.Bound {
					verdict = "unresolved"
				}
				if worse > m.Bound {
					verdict = "REGRESSION"
					regressed = true
				}
			}
			fmt.Fprintf(w, "%-17s %-36s %12.5g %12.5g %+7.1f%% %7s  %s\n", wl, name, ma, mb, 100*change, bound, verdict)
		}
	}
	return regressed
}

// spread is the interquartile range as a share of the median; 0 when
// there are too few runs to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}
