package operator

import (
	"math"
	"math/rand"
	"testing"

	"telegraphcq/internal/expr"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

func collect(dst *[]*tuple.Tuple) Emit {
	return func(t *tuple.Tuple) { *dst = append(*dst, t) }
}

// feed sends price values with sequence numbers 1..n.
func feed(t *testing.T, w *WindowAgg, prices []float64, emit Emit) {
	t.Helper()
	for i, p := range prices {
		if _, err := w.Process(stock(int64(i+1), "MSFT", p), emit); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotAggregate(t *testing.T) {
	// Paper example 1 shape: AVG over window [1,5], once.
	spec := window.Snapshot("stocks", 1, 5)
	aggs := []AggSpec{{Kind: AggAvg, Arg: expr.Col("", "price")}}
	w, err := NewWindowAgg("agg", "stocks", spec, 0, nil, aggs, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy() != StrategyIncremental {
		t.Fatalf("strategy = %v", w.Strategy())
	}
	var out []*tuple.Tuple
	feed(t, w, []float64{10, 20, 30, 40, 50, 999, 999}, collect(&out))
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	if got := out[0].Values[1].F; got != 30 {
		t.Fatalf("avg = %v", got)
	}
	if out[0].Values[0].I != 0 { // loop value t
		t.Fatalf("t = %v", out[0].Values[0])
	}
}

func TestLandmarkAggregateIterative(t *testing.T) {
	// Landmark from 1, right edge moves 1..4: emits prefix aggregates.
	spec := window.Landmark("stocks", 1, 1, 4)
	aggs := []AggSpec{
		{Kind: AggMax, Arg: expr.Col("", "price")},
		{Kind: AggCount},
	}
	w, err := NewWindowAgg("agg", "stocks", spec, 0, nil, aggs, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	feed(t, w, []float64{10, 50, 20, 30, 1}, collect(&out))
	_ = w.Flush(collect(&out))
	// Windows [1,1] [1,2] [1,3] [1,4]: maxes 10, 50, 50, 50; counts 1..4.
	if len(out) != 4 {
		t.Fatalf("results = %d", len(out))
	}
	wantMax := []float64{10, 50, 50, 50}
	for i, r := range out {
		if r.Values[1].F != wantMax[i] || r.Values[2].I != int64(i+1) {
			t.Fatalf("row %d: %v", i, r)
		}
	}
}

func TestSlidingAvgPaperExample3(t *testing.T) {
	// Width 5, hop 5, ST=5: windows [1,5], [6,10].
	spec := window.Sliding("stocks", 5, 5, 10)
	aggs := []AggSpec{{Kind: AggAvg, Arg: expr.Col("", "price")}}
	w, err := NewWindowAgg("agg", "stocks", spec, 5, nil, aggs, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if w.Strategy() != StrategyDeque {
		t.Fatalf("strategy = %v", w.Strategy())
	}
	var out []*tuple.Tuple
	feed(t, w, []float64{1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 99}, collect(&out))
	if len(out) != 2 {
		t.Fatalf("results = %d: %v", len(out), out)
	}
	if out[0].Values[1].F != 3 || out[1].Values[1].F != 30 {
		t.Fatalf("avgs = %v, %v", out[0].Values[1], out[1].Values[1])
	}
}

func TestSlidingMaxStrategiesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	prices := make([]float64, 200)
	for i := range prices {
		prices[i] = math.Round(r.Float64() * 100)
	}
	for _, overlap := range []struct {
		width, hop int64
	}{{10, 3}, {5, 5}, {4, 7}, {1, 1}, {20, 10}} {
		spec := window.Sliding("stocks", overlap.width, overlap.hop, 0)
		aggs := []AggSpec{
			{Kind: AggMax, Arg: expr.Col("", "price")},
			{Kind: AggMin, Arg: expr.Col("", "price")},
			{Kind: AggSum, Arg: expr.Col("", "price")},
			{Kind: AggCount},
		}
		results := map[Strategy][]*tuple.Tuple{}
		for _, s := range []Strategy{StrategyRecompute, StrategyDeque} {
			w, err := NewWindowAgg("agg", "stocks", spec, 1, nil, aggs, s)
			if err != nil {
				t.Fatal(err)
			}
			var out []*tuple.Tuple
			feed(t, w, prices, collect(&out))
			results[s] = out
		}
		rec, dq := results[StrategyRecompute], results[StrategyDeque]
		if len(rec) != len(dq) || len(rec) == 0 {
			t.Fatalf("w=%d h=%d: lengths %d vs %d", overlap.width, overlap.hop, len(rec), len(dq))
		}
		for i := range rec {
			for c := range rec[i].Values {
				a, b := rec[i].Values[c], dq[i].Values[c]
				if a.K != b.K || math.Abs(a.AsFloat()-b.AsFloat()) > 1e-6 {
					t.Fatalf("w=%d h=%d row %d col %d: recompute=%v deque=%v",
						overlap.width, overlap.hop, i, c, a, b)
				}
			}
		}
	}
}

func TestGroupedAggregate(t *testing.T) {
	// ST=4: windows [1,4] and [5,8].
	spec := window.Sliding("stocks", 4, 4, 8)
	aggs := []AggSpec{{Kind: AggAvg, Arg: expr.Col("", "price")}}
	w, err := NewWindowAgg("agg", "stocks", spec, 4,
		[]*expr.ColumnRef{expr.Col("", "sym")}, aggs, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	syms := []string{"A", "B", "A", "B", "A", "A", "B", "B", "X"}
	prices := []float64{10, 100, 20, 200, 30, 40, 300, 400, 0}
	for i := range syms {
		_, err := w.Process(stock(int64(i+1), syms[i], prices[i]), collect(&out))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Window [1,4]: A avg 15, B avg 150. Window [5,8]: A avg 35, B avg 350.
	if len(out) != 4 {
		t.Fatalf("results = %d", len(out))
	}
	type gk struct {
		t   int64
		sym string
	}
	got := map[gk]float64{}
	for _, r := range out {
		got[gk{r.Values[0].I, r.Values[1].S}] = r.Values[2].F
	}
	want := map[gk]float64{
		{4, "A"}: 15, {4, "B"}: 150, {8, "A"}: 35, {8, "B"}: 350,
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %v = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
}

func TestEmptyWindowEmitsCountZero(t *testing.T) {
	// Hop 10 > width 2 leaves gaps; a window with no tuples emits count 0
	// for ungrouped aggregates.
	spec := window.Sliding("stocks", 2, 10, 30)
	aggs := []AggSpec{{Kind: AggCount}, {Kind: AggMax, Arg: expr.Col("", "price")}}
	w, err := NewWindowAgg("agg", "stocks", spec, 1, nil, aggs, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	// Tuples only at seq 25 (window [21,22] missed, [11,12] empty, [1,2] empty).
	_, _ = w.Process(stock(25, "A", 5), collect(&out))
	// Windows [1,2] and [11,12] and [21,22] closed; all empty.
	if len(out) != 3 {
		t.Fatalf("results = %d", len(out))
	}
	for _, r := range out {
		if r.Values[1].I != 0 || !r.Values[2].IsNull() {
			t.Fatalf("empty window row: %v", r)
		}
	}
}

func TestHopGapTuplesIgnored(t *testing.T) {
	// width 2, hop 5, ST=2: windows [1,2], [6,7], [11,12], ...; tuples at
	// 3,4,5 fall in the hop gap and are never buffered (§4.1.2: "some
	// portions of the stream are never involved").
	spec := window.Sliding("stocks", 2, 5, 20)
	aggs := []AggSpec{{Kind: AggCount}}
	w, err := NewWindowAgg("agg", "stocks", spec, 2, nil, aggs, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	for seq := int64(1); seq <= 7; seq++ {
		_, _ = w.Process(stock(seq, "A", 1), collect(&out))
	}
	if w.StateSize() > 2 {
		t.Fatalf("gap tuples buffered: state = %d", w.StateSize())
	}
	_ = w.Flush(collect(&out))
	// [1,2] count 2, then flush closes the open [6,7] with count 2.
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	if out[0].Values[1].I != 2 || out[1].Values[1].I != 2 {
		t.Fatalf("counts: %v, %v", out[0], out[1])
	}
}

func TestStdDev(t *testing.T) {
	spec := window.Snapshot("stocks", 1, 4)
	aggs := []AggSpec{{Kind: AggStdDev, Arg: expr.Col("", "price")}}
	w, _ := NewWindowAgg("agg", "stocks", spec, 0, nil, aggs, StrategyAuto)
	var out []*tuple.Tuple
	feed(t, w, []float64{2, 4, 4, 4, 99}, collect(&out))
	// population stddev of {2,4,4,4}: mean 3.5, var (2.25+0.25*3)/4 = 0.75
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	want := math.Sqrt(0.75)
	if got := out[0].Values[1].F; math.Abs(got-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
}

func TestCountStarVsCountArg(t *testing.T) {
	spec := window.Snapshot("stocks", 1, 3)
	aggs := []AggSpec{
		{Kind: AggCount}, // COUNT(*)
		{Kind: AggCount, Arg: expr.Col("", "price")}, // COUNT(price)
		{Kind: AggSum, Arg: expr.Col("", "price")},
	}
	w, _ := NewWindowAgg("agg", "stocks", spec, 0, nil, aggs, StrategyAuto)
	var out []*tuple.Tuple
	// One NULL price.
	t1 := stock(1, "A", 10)
	t2 := tuple.New(stockSchema, tuple.Int(2), tuple.String("A"), tuple.Null())
	t2.TS = tuple.Timestamp{Seq: 2}
	t3 := stock(3, "A", 30)
	for _, tp := range []*tuple.Tuple{t1, t2, t3} {
		_, _ = w.Process(tp, collect(&out))
	}
	_, _ = w.Process(stock(4, "A", 0), collect(&out)) // closes window
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	r := out[0]
	if r.Values[1].I != 3 || r.Values[2].I != 2 || r.Values[3].F != 40 {
		t.Fatalf("row: %v", r)
	}
}

func TestStateSizeLandmarkVsSliding(t *testing.T) {
	// §4.1.2: landmark MAX needs O(1) state, sliding MAX needs the window.
	landmark, _ := NewWindowAgg("l", "stocks", window.Landmark("stocks", 1, 1, 100000), 0,
		nil, []AggSpec{{Kind: AggMax, Arg: expr.Col("", "price")}}, StrategyAuto)
	sliding, _ := NewWindowAgg("s", "stocks", window.Sliding("stocks", 1000, 1, 0), 1,
		nil, []AggSpec{{Kind: AggMax, Arg: expr.Col("", "price")}}, StrategyRecompute)
	var sink []*tuple.Tuple
	r := rand.New(rand.NewSource(3))
	for seq := int64(1); seq <= 3000; seq++ {
		p := r.Float64() * 100
		_, _ = landmark.Process(stock(seq, "A", p), collect(&sink))
		_, _ = sliding.Process(stock(seq, "A", p), collect(&sink))
	}
	if l := landmark.StateSize(); l > 10 {
		t.Fatalf("landmark state = %d, want O(1)", l)
	}
	if s := sliding.StateSize(); s < 900 {
		t.Fatalf("sliding recompute state = %d, want ~window", s)
	}
}

func TestWindowAggErrors(t *testing.T) {
	aggs := []AggSpec{{Kind: AggCount}}
	if _, err := NewWindowAgg("a", "other", window.Snapshot("stocks", 1, 5), 0, nil, aggs, StrategyAuto); err == nil {
		t.Fatal("wrong stream accepted")
	}
	if _, err := NewWindowAgg("a", "stocks", window.Snapshot("stocks", 1, 5), 0, nil, nil, StrategyAuto); err == nil {
		t.Fatal("no aggs accepted")
	}
	if _, err := NewWindowAgg("a", "stocks", window.Sliding("stocks", 5, 1, 0), 1, nil, aggs, StrategyIncremental); err == nil {
		t.Fatal("incremental over sliding accepted")
	}
	if _, err := NewWindowAgg("a", "stocks", window.Backward("stocks", 5, 5, 3), 10, nil, aggs, StrategyAuto); err == nil {
		t.Fatal("backward window accepted")
	}
}

func TestParseAggKind(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "sum": AggSum, "avg": AggAvg,
		"min": AggMin, "max": AggMax, "stddev": AggStdDev,
	} {
		got, ok := ParseAggKind(name)
		if !ok || got != want {
			t.Errorf("ParseAggKind(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseAggKind("median"); ok {
		t.Error("median accepted")
	}
}

func TestAggSpecOutputName(t *testing.T) {
	if (AggSpec{Kind: AggCount}).OutputName() != "count" {
		t.Error("count name")
	}
	a := AggSpec{Kind: AggAvg, Arg: expr.Col("", "price")}
	if a.OutputName() != "avg_price" {
		t.Errorf("name = %q", a.OutputName())
	}
	a.As = "p"
	if a.OutputName() != "p" {
		t.Error("alias ignored")
	}
}

func BenchmarkSlidingMaxDeque(b *testing.B) {
	benchSliding(b, StrategyDeque)
}

func BenchmarkSlidingMaxRecompute(b *testing.B) {
	benchSliding(b, StrategyRecompute)
}

func benchSliding(b *testing.B, s Strategy) {
	spec := window.Sliding("stocks", 1000, 100, 0)
	aggs := []AggSpec{{Kind: AggMax, Arg: expr.Col("", "price")}}
	w, err := NewWindowAgg("agg", "stocks", spec, 1, nil, aggs, s)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Process(stock(int64(i+1), "A", r.Float64()*1000), noEmit)
	}
}
