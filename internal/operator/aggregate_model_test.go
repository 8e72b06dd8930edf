package operator

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// The Deque strategy is checked against Recompute, which rebuilds every
// result from the buffered window and so serves as the model.

var mixSchema = tuple.NewSchema(
	tuple.Column{Source: "m", Name: "g", Kind: tuple.KindString},
	tuple.Column{Source: "m", Name: "h", Kind: tuple.KindInt},
	tuple.Column{Source: "m", Name: "i", Kind: tuple.KindInt},
	tuple.Column{Source: "m", Name: "f", Kind: tuple.KindFloat},
	tuple.Column{Source: "m", Name: "s", Kind: tuple.KindString},
)

// mixAggs is every aggregate kind over the int and float columns, plus
// MIN, MAX and COUNT over the string column and COUNT(*).
func mixAggs() []AggSpec {
	aggs := []AggSpec{{Kind: AggCount}}
	for _, col := range []string{"i", "f"} {
		for _, k := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax, AggStdDev} {
			aggs = append(aggs, AggSpec{Kind: k, Arg: expr.Col("", col)})
		}
	}
	for _, k := range []AggKind{AggCount, AggMin, AggMax} {
		aggs = append(aggs, AggSpec{Kind: k, Arg: expr.Col("", "s")})
	}
	return aggs
}

// mixRows decodes four bytes per row: the instant's advance and the
// group g, then h and i, then f (a multiple of 1/8, so sums are exact),
// then s. Every column but g's first byte can be NULL, and an advance
// byte of 250 or more jumps far enough to empty every group.
func mixRows(ops []byte, width int64) []*tuple.Tuple {
	gs := []tuple.Value{tuple.String("a"), tuple.String("b"), tuple.String("c"), tuple.Null()}
	hs := []tuple.Value{tuple.Int(1), tuple.Int(2), tuple.Null()}
	ss := []tuple.Value{tuple.String(""), tuple.String("a"), tuple.String("ab"),
		tuple.String("b"), tuple.Null(), tuple.String("ba")}
	var rows []*tuple.Tuple
	seq := int64(1)
	for ; len(ops) >= 4; ops = ops[4:] {
		if ops[0] >= 250 {
			seq += 2 * width
		} else {
			seq += int64(ops[0] % 4)
		}
		i := tuple.Int(int64(ops[1]>>2%10) - 4)
		if ops[1]>>2%10 == 9 {
			i = tuple.Null()
		}
		f := tuple.Float(float64(int8(ops[2])) / 8)
		if ops[2] == 0x80 {
			f = tuple.Null()
		}
		r := tuple.New(mixSchema, gs[ops[0]>>2%4], hs[ops[1]%3], i, f, ss[ops[3]%6])
		r.TS = tuple.Timestamp{Seq: seq}
		rows = append(rows, r)
	}
	return rows
}

// sortedRows renders one emission batch order-insensitively: the two
// strategies may list a close's groups in different orders.
func sortedRows(rows []*tuple.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		b := []byte{}
		for _, v := range r.Values {
			// A float's text is its shortest round-trip form, so equal
			// text means equal bits.
			b = append(v.AppendText(append(b, byte(v.K))), '|')
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// runAggModel feeds the same rows to a Deque and a Recompute WindowAgg
// and requires identical result rows after every row and at Flush, once
// with COUNT(*) among the aggregates and once without it (then Deque
// keeps no per-row instants for the group).
func runAggModel(t *testing.T, width, hop int64, nGroup int, ops []byte) {
	t.Helper()
	aggs := mixAggs()
	runAggModelWith(t, width, hop, nGroup, aggs, ops)
	runAggModelWith(t, width, hop, nGroup, aggs[1:], ops)
}

func runAggModelWith(t *testing.T, width, hop int64, nGroup int, aggs []AggSpec, ops []byte) {
	t.Helper()
	spec := window.Sliding("m", width, hop, 0)
	groupBy := []*expr.ColumnRef{expr.Col("", "g"), expr.Col("", "h")}[:nGroup]
	var ws [2]*WindowAgg
	for i, s := range []Strategy{StrategyDeque, StrategyRecompute} {
		w, err := NewWindowAgg("agg", "m", spec, width, groupBy, aggs, s)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	check := func(step string, call func(w *WindowAgg, emit Emit) error) {
		t.Helper()
		var got [2][]*tuple.Tuple
		for i, w := range ws {
			if err := call(w, collect(&got[i])); err != nil {
				t.Fatal(err)
			}
		}
		dq, rec := sortedRows(got[0]), sortedRows(got[1])
		if len(dq) != len(rec) {
			t.Fatalf("w=%d h=%d groups=%d aggs=%d %s: deque %d rows, recompute %d\ndeque %q\nrecompute %q",
				width, hop, nGroup, len(aggs), step, len(dq), len(rec), dq, rec)
		}
		for i := range dq {
			if dq[i] != rec[i] {
				t.Fatalf("w=%d h=%d groups=%d aggs=%d %s:\ndeque     %q\nrecompute %q",
					width, hop, nGroup, len(aggs), step, dq[i], rec[i])
			}
		}
	}
	for n, r := range mixRows(ops, width) {
		check("row "+strconv.Itoa(n)+" "+r.String(), func(w *WindowAgg, emit Emit) error {
			_, err := w.Process(r, emit)
			return err
		})
	}
	check("flush", func(w *WindowAgg, emit Emit) error { return w.Flush(emit) })
}

// aggShape picks width, hop and the group columns from three bytes: hop
// below, equal to or above the width (a gap), one or two group columns.
func aggShape(a, b, c byte) (width, hop int64, nGroup int) {
	width = 2 + int64(a%6)
	switch b % 3 {
	case 0:
		hop = 1 + int64(c)%(width-1)
	case 1:
		hop = width
	default:
		hop = width + 1 + int64(c%4)
	}
	return width, hop, 1 + int(b/3%2)
}

func TestWindowAggDequeAgainstRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		ops := make([]byte, 800)
		rng.Read(ops)
		// Cycle the hop regime and group columns so each round's shape
		// is covered evenly.
		width, hop, nGroup := aggShape(ops[0], byte(round%6), ops[2])
		runAggModel(t, width, hop, nGroup, ops[3:])
	}
}

func FuzzWindowAggDequeAgainstRecompute(f *testing.F) {
	f.Add([]byte{3, 0, 1, 4, 9, 0, 1, 5, 200, 8, 2, 8, 16, 255, 3, 0, 2, 2, 1, 0, 7, 40, 9, 250, 1, 2, 3})
	f.Add([]byte{1, 1, 0, 0, 4, 128, 4, 1, 36, 130, 5, 2, 8, 0, 3, 6, 3, 1, 1})
	f.Add([]byte{5, 5, 3, 2, 0, 10, 1, 3, 0, 255, 2, 5, 3, 3, 6, 7, 1, 9, 16, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		width, hop, nGroup := aggShape(ops[0], ops[1], ops[2])
		runAggModel(t, width, hop, nGroup, ops[3:])
	})
}

// TestWindowAggFoldAllocs pins the per-row cost of folding a row into an
// existing group between window closes: no allocation.
func TestWindowAggFoldAllocs(t *testing.T) {
	const runs = 1000
	spec := window.Sliding("stocks", 1<<20, 1<<20, 0)
	aggs := []AggSpec{
		{Kind: AggMin, Arg: expr.Col("", "price")},
		{Kind: AggMax, Arg: expr.Col("", "price")},
		{Kind: AggAvg, Arg: expr.Col("", "price")},
		{Kind: AggCount},
	}
	w, err := NewWindowAgg("agg", "stocks", spec, 1<<20,
		[]*expr.ColumnRef{expr.Col("", "sym")}, aggs, StrategyDeque)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	rows := make([]*tuple.Tuple, runs+2)
	for i := range rows {
		rows[i] = stock(int64(i+1), "MSFT", math.Round(r.Float64()*100))
	}
	if _, err := w.Process(rows[0], noEmit); err != nil { // creates the group
		t.Fatal(err)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		_, _ = w.Process(rows[next], noEmit)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Process into an existing group: %v allocs per row, want 0", allocs)
	}
}

// TestSlidingMaxRisingKeepsOneItem: a sliding MAX over rising values
// keeps only the newest value — its deque never holds more, and nothing
// else is retained for it.
func TestSlidingMaxRisingKeepsOneItem(t *testing.T) {
	w, err := NewWindowAgg("s", "stocks", window.Sliding("stocks", 1000, 1, 0), 1,
		nil, []AggSpec{{Kind: AggMax, Arg: expr.Col("", "price")}}, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	for seq := int64(1); seq <= 3000; seq++ {
		if _, err := w.Process(stock(seq, "A", float64(seq)), collect(&out)); err != nil {
			t.Fatal(err)
		}
	}
	if s := w.StateSize(); s > 2 {
		t.Fatalf("sliding MAX over rising values holds %d items, want <= 2", s)
	}
	if last := out[len(out)-1]; last.Values[1].F != 2999 {
		t.Fatalf("last max = %v, want 2999", last.Values[1])
	}
}
