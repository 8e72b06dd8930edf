package executor

import (
	"fmt"
	"testing"
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

func newCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	_, err := cat.CreateStream("stocks", []tuple.Column{
		{Name: "sym", Kind: tuple.KindString},
		{Name: "price", Kind: tuple.KindFloat},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cat.CreateStream("news", []tuple.Column{
		{Name: "sym", Kind: tuple.KindString},
		{Name: "score", Kind: tuple.KindFloat},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := cat.CreateTable("companies", []tuple.Column{
		{Name: "sym", Kind: tuple.KindString},
		{Name: "hq", Kind: tuple.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]string{{"MSFT", "Redmond"}, {"IBM", "Armonk"}} {
		_ = comp.Insert(tuple.New(comp.Schema, tuple.String(r[0]), tuple.String(r[1])))
	}
	return cat
}

func submit(t *testing.T, x *Executor, q string) (int, *egress.Subscription) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	id, sub, err := x.Submit(st.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return id, sub
}

func pushStocks(t *testing.T, x *Executor, rows ...[2]any) {
	t.Helper()
	for _, r := range rows {
		_, err := x.Push("stocks", []tuple.Value{
			tuple.String(r[0].(string)), tuple.Float(r[1].(float64)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// drain collects whatever rows are available after a barrier.
func drain(t *testing.T, x *Executor, sub *egress.Subscription) []*tuple.Tuple {
	t.Helper()
	if err := x.Barrier(); err != nil {
		t.Fatal(err)
	}
	var out []*tuple.Tuple
	waitFor(t, 30*time.Second, "subscription to drain", func() bool {
		for {
			r, ok := sub.TryNext()
			if !ok {
				return sub.Len() == 0
			}
			out = append(out, r)
		}
	})
	return out
}

func TestFilterQueryEndToEnd(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `SELECT sym, price FROM stocks WHERE price > 50`)
	pushStocks(t, x, [2]any{"MSFT", 60.0}, [2]any{"IBM", 40.0}, [2]any{"MSFT", 55.0})
	rows := drain(t, x, sub)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Values[0].S != "MSFT" || rows[0].Values[1].F != 60 {
		t.Fatalf("row0: %v", rows[0])
	}
}

func TestTwoQueriesShareOneEO(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub1 := submit(t, x, `SELECT sym FROM stocks WHERE price > 10`)
	_, sub2 := submit(t, x, `SELECT sym FROM stocks WHERE price > 90`)
	if x.EOCount() != 1 {
		t.Fatalf("EOs = %d", x.EOCount())
	}
	pushStocks(t, x, [2]any{"A", 50.0}, [2]any{"B", 95.0})
	r1 := drain(t, x, sub1)
	r2 := drain(t, x, sub2)
	if len(r1) != 2 || len(r2) != 1 {
		t.Fatalf("rows: %d, %d", len(r1), len(r2))
	}
}

func TestDisjointFootprintsSeparateEOs(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	submit(t, x, `SELECT sym FROM stocks`)
	submit(t, x, `SELECT sym FROM news`)
	if x.EOCount() != 2 {
		t.Fatalf("EOs = %d, want 2 for disjoint footprints", x.EOCount())
	}
	// A bridging query lands in one of the existing EOs.
	submit(t, x, `SELECT stocks.sym FROM stocks, news WHERE stocks.sym = news.sym`)
	if x.EOCount() != 2 {
		t.Fatalf("EOs = %d after bridge", x.EOCount())
	}
}

func TestClassModes(t *testing.T) {
	for mode, wantEOs := range map[ClassMode]int{
		ClassSingle:   1,
		ClassPerQuery: 3,
	} {
		x := New(newCat(t), Options{Mode: mode})
		submit(t, x, `SELECT sym FROM stocks`)
		submit(t, x, `SELECT sym FROM news`)
		submit(t, x, `SELECT sym FROM stocks WHERE price > 1`)
		if x.EOCount() != wantEOs {
			t.Fatalf("mode %v: EOs = %d, want %d", mode, x.EOCount(), wantEOs)
		}
		x.Close()
	}
}

func TestAggregateQueryEndToEnd(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `
		SELECT avg(price) FROM stocks WHERE sym = 'MSFT'
		for (t = ST; ; t += 5) { WindowIs(stocks, t + 1, t + 5); }`)
	for i := 1; i <= 11; i++ {
		pushStocks(t, x, [2]any{"MSFT", float64(i)})
	}
	rows := drain(t, x, sub)
	// Windows [1,5] avg 3 and [6,10] avg 8 closed; [11,15] still open.
	if len(rows) != 2 {
		t.Fatalf("agg rows = %d: %v", len(rows), rows)
	}
	if rows[0].Values[1].F != 3 || rows[1].Values[1].F != 8 {
		t.Fatalf("avgs: %v %v", rows[0], rows[1])
	}
}

func TestStreamTableJoin(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `
		SELECT stocks.sym, companies.hq FROM stocks, companies
		WHERE stocks.sym = companies.sym AND price > 50`)
	pushStocks(t, x, [2]any{"MSFT", 60.0}, [2]any{"MSFT", 10.0}, [2]any{"ORCL", 99.0})
	rows := drain(t, x, sub)
	if len(rows) != 1 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[0].Values[1].S != "Redmond" {
		t.Fatalf("row: %v", rows[0])
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	// Pairs of different symbols with c2 more expensive, same push batch.
	_, sub := submit(t, x, `
		SELECT c1.sym, c2.sym FROM stocks AS c1, stocks AS c2
		WHERE c1.sym = 'MSFT' AND c2.sym != 'MSFT' AND c2.price > c1.price`)
	pushStocks(t, x, [2]any{"MSFT", 50.0}, [2]any{"IBM", 60.0}, [2]any{"ORCL", 40.0})
	rows := drain(t, x, sub)
	// c1=MSFT(50) joins c2=IBM(60) only.
	if len(rows) != 1 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[0].Values[0].S != "MSFT" || rows[0].Values[1].S != "IBM" {
		t.Fatalf("row: %v", rows[0])
	}
}

// TestCancelStopsDelivery cancels a query and resubmits another on the
// same EO, with and without hash shards: the cancelled query stops
// delivering, and the route table rebuilt on remove and on add keeps the
// EO's other traffic flowing.
func TestCancelStopsDelivery(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			x := New(newCat(t), Options{Shards: shards, SampleInterval: -1})
			defer x.Close()
			id, sub := submit(t, x, `SELECT sym FROM stocks WHERE price > 10`)
			pushStocks(t, x, [2]any{"A", 50.0}, [2]any{"B", 5.0})
			if got := drain(t, x, sub); len(got) != 1 {
				t.Fatalf("before cancel: %d", len(got))
			}
			if err := x.Cancel(id); err != nil {
				t.Fatal(err)
			}
			pushStocks(t, x, [2]any{"B", 50.0})
			if err := x.Barrier(); err != nil {
				t.Fatal(err)
			}
			if _, ok := sub.TryNext(); ok {
				t.Fatal("delivery after cancel")
			}
			if err := x.Cancel(id); err == nil {
				t.Fatal("double cancel succeeded")
			}
			if len(x.Queries()) != 0 {
				t.Fatalf("queries = %v", x.Queries())
			}
			_, sub2 := submit(t, x, `SELECT sym, price FROM stocks WHERE price > 1`)
			pushStocks(t, x, [2]any{"C", 7.0}, [2]any{"D", 0.5})
			if got := drain(t, x, sub2); len(got) != 1 {
				t.Fatalf("rows after resubmit = %d, want 1", len(got))
			}
			if x.EOCount() != 1 {
				t.Fatalf("EOs = %d", x.EOCount())
			}
		})
	}
}

func TestLimitCompletesQuery(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `SELECT sym FROM stocks LIMIT 2`)
	pushStocks(t, x, [2]any{"A", 1.0}, [2]any{"B", 1.0}, [2]any{"C", 1.0})
	rows := drain(t, x, sub)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The query cancels itself after LIMIT.
	waitFor(t, 30*time.Second, "the query to cancel itself after LIMIT", func() bool {
		return len(x.Queries()) == 0
	})
}

func TestDistinct(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `SELECT DISTINCT sym FROM stocks`)
	pushStocks(t, x, [2]any{"A", 1.0}, [2]any{"A", 2.0}, [2]any{"B", 3.0})
	rows := drain(t, x, sub)
	if len(rows) != 2 {
		t.Fatalf("distinct rows = %d", len(rows))
	}
}

func TestPushErrors(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	if _, err := x.Push("nope", nil); err == nil {
		t.Fatal("unknown stream accepted")
	}
	if _, err := x.Push("companies", []tuple.Value{tuple.String("x"), tuple.String("y")}); err == nil {
		t.Fatal("push to table accepted")
	}
	if _, err := x.Push("stocks", []tuple.Value{tuple.String("x")}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestSubmitErrors(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	for _, q := range []string{
		`SELECT sym FROM nostream`,
		`SELECT nocol FROM stocks`,
		`SELECT sym FROM stocks, stocks`, // duplicate unaliased
		`SELECT avg(price) FROM stocks`,  // aggregate without window
		`SELECT sym, avg(price) FROM stocks for (t=ST;;t++) { WindowIs(stocks, t, t) }`, // sym not grouped
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, _, err := x.Submit(st.(*sql.Select)); err == nil {
			t.Errorf("Submit(%q) succeeded", q)
		}
	}
}

func TestSubscriptionShedsWhenClientStalls(t *testing.T) {
	x := New(newCat(t), Options{SubscriptionCap: 4})
	defer x.Close()
	_, sub := submit(t, x, `SELECT sym FROM stocks`)
	for i := 0; i < 100; i++ {
		pushStocks(t, x, [2]any{fmt.Sprintf("s%d", i), 1.0})
	}
	// Delivery (and therefore shedding) happens on the EO goroutine
	// before the barrier is acknowledged.
	if err := x.Barrier(); err != nil {
		t.Fatal(err)
	}
	if sub.Dropped() == 0 {
		t.Fatal("no shedding with tiny subscription queue")
	}
	if sub.Len() > 4 {
		t.Fatalf("queue over capacity: %d", sub.Len())
	}
}

func TestManyQueriesManyTuples(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	subs := map[int]*egress.Subscription{}
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf(`SELECT sym FROM stocks WHERE price > %d`, i*10)
		id, sub := submit(t, x, q)
		subs[id] = sub
	}
	for i := 0; i < 200; i++ {
		pushStocks(t, x, [2]any{"X", float64(i)})
	}
	if err := x.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Query i sees prices i*10+1 .. 199: 199-(i*10) rows.
	for id, sub := range subs {
		want := 199 - id*10
		got := 0
		for {
			if _, ok := sub.TryNext(); !ok {
				break
			}
			got++
		}
		if got != want {
			t.Fatalf("query %d: %d rows, want %d", id, got, want)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	x := New(newCat(t), Options{})
	submit(t, x, `SELECT sym FROM stocks`)
	x.Close()
	x.Close()
	st, _ := sql.Parse(`SELECT sym FROM stocks`)
	if _, _, err := x.Submit(st.(*sql.Select)); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// A row of the wrong arity in the middle of a PushBatch fails the batch
// before anything is drawn: no row is admitted and no sequence number is
// spent.
func TestPushBatchBadRowAdmitsNothing(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, sub := submit(t, x, `SELECT sym, price FROM stocks`)
	src, err := x.cat.Lookup("stocks")
	if err != nil {
		t.Fatal(err)
	}
	pushStocks(t, x, [2]any{"A", 1.0})
	before := src.CurSeq()
	rows := [][]tuple.Value{
		{tuple.String("B"), tuple.Float(2)},
		{tuple.String("C"), tuple.Float(3)},
		{tuple.String("D")},
		{tuple.String("E"), tuple.Float(5)},
	}
	if _, err := x.PushBatch("stocks", rows); err == nil {
		t.Fatal("batch with a short row accepted")
	}
	if got := src.CurSeq(); got != before {
		t.Fatalf("next sequence moved from %d to %d", before+1, got+1)
	}
	if got := drain(t, x, sub); len(got) != 1 {
		t.Fatalf("admitted %d rows, want only the one before the bad batch", len(got))
	}
}

// PushRows admits a mixed-stream read in arrival order, refuses exactly
// the bad rows by index, and numbers each stream's rows consecutively.
func TestPushRowsMixedStreamsRefusesByRow(t *testing.T) {
	x := New(newCat(t), Options{})
	defer x.Close()
	_, quotes := submit(t, x, `SELECT sym, price FROM stocks`)
	_, news := submit(t, x, `SELECT sym, score FROM news`)
	streams := []string{"stocks", "news", "nope", "stocks", "news", "stocks"}
	rows := [][]tuple.Value{
		{tuple.String("A"), tuple.Float(1)},
		{tuple.String("A"), tuple.Float(10)},
		{tuple.String("X"), tuple.Float(0)},
		{tuple.String("B")},
		{tuple.String("B"), tuple.Float(20)},
		{tuple.String("C"), tuple.Float(3)},
	}
	var refused []int
	x.PushRows(streams, rows, func(i int, err error) { refused = append(refused, i) })
	if fmt.Sprint(refused) != "[2 3]" {
		t.Fatalf("refused rows %v, want [2 3]", refused)
	}
	var got []string
	for _, r := range drain(t, x, quotes) {
		got = append(got, fmt.Sprintf("%s/%d", r.Values[0].S, r.TS.Seq))
	}
	for _, r := range drain(t, x, news) {
		got = append(got, fmt.Sprintf("%s/%d", r.Values[0].S, r.TS.Seq))
	}
	if fmt.Sprint(got) != "[A/1 C/2 A/1 B/2]" {
		t.Fatalf("admitted %v", got)
	}
}
