// Package experiments regenerates the evaluation of DESIGN.md §4: each
// function reproduces one performance claim of the TelegraphCQ paper (or
// of the companion system the paper cites for it) and returns a printable
// table. cmd/tcqbench prints them; the root bench_test.go wraps them in
// testing.B benchmarks. Absolute numbers depend on the host; the claims
// are about shape (who wins, by what factor, where crossovers fall).
package experiments

import (
	"fmt"
	"strings"
)

// ShardSweep is the per-EO eddy shard counts the sharded rows of E10
// run (1 is always the baseline). cmd/tcqbench's -shards flag overrides
// it; recorded in BENCH_*.json alongside GOMAXPROCS so speedups are
// interpretable on the host they were measured on.
var ShardSweep = []int{1, 2, 4}

// Table is one experiment's result.
type Table struct {
	ID      string // "E1" ... "E10"
	Title   string
	Claim   string // the paper claim being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render prints the table in aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// All runs every experiment at the given scale factor (1 = quick,
// suitable for CI; larger = smoother numbers).
func All(scale int) []*Table {
	if scale < 1 {
		scale = 1
	}
	return []*Table{
		E1SharedVsUnshared(scale),
		E2GroupedFilter(scale),
		E3EddyVsStatic(scale),
		E4JoinHybrid(scale),
		E5Disconnected(scale),
		E6Flux(scale),
		E7Windows(scale),
		E8Fjords(scale),
		E9Batching(scale),
		E10Executor(scale),
		E12CompiledExpr(scale),
	}
}

// ByID returns one experiment by id ("E1".."E10", "E12"), or nil.
func ByID(id string, scale int) *Table {
	if scale < 1 {
		scale = 1
	}
	switch strings.ToUpper(id) {
	case "E1":
		return E1SharedVsUnshared(scale)
	case "E2":
		return E2GroupedFilter(scale)
	case "E3":
		return E3EddyVsStatic(scale)
	case "E4":
		return E4JoinHybrid(scale)
	case "E5":
		return E5Disconnected(scale)
	case "E6":
		return E6Flux(scale)
	case "E7":
		return E7Windows(scale)
	case "E8":
		return E8Fjords(scale)
	case "E9":
		return E9Batching(scale)
	case "E10":
		return E10Executor(scale)
	case "E12":
		return E12CompiledExpr(scale)
	}
	return nil
}

func ns(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fµs", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
