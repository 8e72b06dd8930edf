package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// Smoke: every experiment runs at scale 1 and produces a table with rows.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, tab := range All(1) {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.ID)
		}
		if tab.Render() == "" {
			t.Errorf("%s: empty render", tab.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if ByID("e2", 1) == nil {
		t.Fatal("ByID e2 nil")
	}
	if ByID("nope", 1) != nil {
		t.Fatal("ByID nope non-nil")
	}
}

// E5's claims are asserted, not just printed: every reconnect returns the
// same rows from the spool as from the archive, and at the largest
// disconnection the materialized answer is the faster one.
func TestE5Invariants(t *testing.T) {
	tab := E5Disconnected(1)
	t.Log("\n" + tab.Render())
	if len(tab.Rows) == 0 {
		t.Fatal("E5 has no rows")
	}
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	cell := func(row int, column string) string {
		t.Helper()
		i, ok := col[column]
		if !ok {
			t.Fatalf("E5 has no column %q", column)
		}
		return tab.Rows[row][i]
	}
	for r := range tab.Rows {
		missed := cell(r, "missed")
		if f, rc := cell(r, "fetched"), cell(r, "recomputed"); f != rc {
			t.Errorf("missed %s: fetched %s rows, recomputed %s", missed, f, rc)
		}
		if same := cell(r, "same rows"); same != "yes" {
			t.Errorf("missed %s: spool and archive answers differ", missed)
		}
	}
	last := len(tab.Rows) - 1
	dur := func(column string) time.Duration {
		t.Helper()
		d, err := time.ParseDuration(cell(last, column))
		if err != nil {
			t.Fatalf("column %q: %v", column, err)
		}
		return d
	}
	if mat, rec := dur("materialized"), dur("recompute"); mat >= rec {
		t.Errorf("missed %s: materialized %v is not faster than recompute %v", cell(last, "missed"), mat, rec)
	}
}

// E6's claims are asserted, not just printed: the table it returns must
// show exact counts where the system promises them, loss where it does
// not, and a balancer that moved buckets and cooled the hot node.
func TestE6Invariants(t *testing.T) {
	tab := E6Flux(1)
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 5 {
		t.Fatalf("E6 has %d rows, want 5", len(tab.Rows))
	}
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	const balanced, skewOff, skewOn, killBare, killPairs = 0, 1, 2, 3, 4
	num := func(row int, column string) float64 {
		t.Helper()
		cell := tab.Rows[row][col[column]]
		if i := strings.LastIndex(cell, "→"); i >= 0 {
			cell = cell[i+len("→"):] // "before → after": the settled value
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if err != nil {
			t.Fatalf("row %q column %q: %v", tab.Rows[row][0], column, err)
		}
		return v
	}
	for _, row := range []int{balanced, killPairs} {
		if e := num(row, "count error"); e != 0 {
			t.Errorf("%s: count error %v, want 0", tab.Rows[row][0], e)
		}
	}
	if num(killPairs, "promotions") < 1 {
		t.Errorf("process-pair kill promoted nothing")
	}
	if num(killBare, "count error") <= 0 {
		t.Errorf("unreplicated kill lost nothing")
	}
	if num(skewOn, "moves") < 1 {
		t.Errorf("balancer made no move under key skew")
	}
	if on, off := num(skewOn, "hot-node share"), num(skewOff, "hot-node share"); on >= off {
		t.Errorf("balancer left the hot node at %v of the load, %v without it", on, off)
	}
}
