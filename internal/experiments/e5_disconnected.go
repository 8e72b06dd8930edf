package experiments

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"telegraphcq/internal/core"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/workload"
)

// E5Disconnected reproduces PSoup's disconnected-client result (§3.2,
// [CF02]) on the daemon's own path: standing selections over an ARCHIVED
// stream keep materializing into their egress spools while their
// clients are away, so a reconnecting client's Spool.Fetch costs
// O(answer). The baseline recomputes the answer from history — an
// archive scan of every row the client missed plus the WHERE predicate
// — so its cost follows the rows missed.
func E5Disconnected(scale int) *Table {
	t := &Table{
		ID:    "E5",
		Title: "PSoup modality: disconnected retrieval, spool fetch vs archive recompute",
		Claim: "results materialized while a client is away cost O(answer) to retrieve; recomputing them from history costs O(rows missed) (PSoup, VLDB 2002)",
		Columns: []string{"missed", "fetched", "recomputed", "materialized", "recompute", "speedup",
			"per fetched row", "per missed row", "same rows"},
	}
	const (
		stream = "ClosingStockPrices"
		reps   = 5 // reconnects timed per client and row
	)
	missed := []int{1000, 5000, 20000, 50000}
	syms := workload.DefaultSymbols
	// One standing selection per symbol: each answers 1/8 of the rows,
	// so a spool of capacity maxMissed/8 plus slack never ages out an
	// answer before its client returns.
	capacity := missed[len(missed)-1]*scale/len(syms) + 1024

	dir, err := os.MkdirTemp("", "tcq-e5")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s := core.NewSystem(core.Options{DataDir: dir})
	defer s.Close()
	// Blocking ingest: a shed row would be in the archive but in no spool.
	s.MustExec(`CREATE STREAM ClosingStockPrices (
		timestamp int, stockSymbol string, closingPrice float) ARCHIVED WITH (overflow = 'block')`)

	type client struct {
		where  expr.Expr
		spool  *egress.Spool
		offset int64 // the spool offset the client had read to
	}
	clients := make([]client, len(syms))
	for i, sym := range syms {
		st, err := sql.Parse(fmt.Sprintf(`SELECT * FROM %s WHERE stockSymbol = '%s'`, stream, sym))
		if err != nil {
			panic(err)
		}
		sel := st.(*sql.Select)
		// Detached with its spool attached before any data arrives, so the
		// spool holds every result.
		id, err := s.Executor().SubmitDetached(sel)
		if err != nil {
			panic(err)
		}
		clients[i] = client{where: sel.Where, spool: s.Executor().Hub().SpoolFor(id, capacity)}
	}

	// Every disconnection replays a prefix of one trace; Push stamps
	// fresh sequence numbers, so the archive holds each replay anew.
	rows := workload.Stocks{Seed: 2}.Rows(missed[len(missed)-1] * scale)
	for _, d := range missed {
		d *= scale
		// Every client is caught up, then disconnects for d rows.
		lastSeq := s.CurSeq(stream)
		for i := range clients {
			clients[i].offset = clients[i].spool.End()
		}
		for _, r := range rows[:d] {
			if err := s.Push(stream, r.Values...); err != nil {
				panic(err)
			}
		}
		if err := s.Barrier(); err != nil {
			panic(err)
		}
		now := s.CurSeq(stream)
		archive := s.Archive(stream)
		recompute := func(where expr.Expr) []*tuple.Tuple {
			var out []*tuple.Tuple
			var evalErr error
			err := archive.ScanRange(lastSeq+1, now, func(r *tuple.Tuple) bool {
				ok, err := expr.Truthy(where, r)
				if err != nil {
					evalErr = err
					return false
				}
				if ok {
					out = append(out, r)
				}
				return true
			})
			if err == nil {
				err = evalErr
			}
			if err != nil {
				panic(err)
			}
			return out
		}

		// Each client reconnects; average the cost per reconnect.
		nFetched, nRecomputed := 0, 0
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, c := range clients {
				_, n, _ := c.spool.Fetch(c.offset)
				nFetched += n
			}
		}
		matNs := float64(time.Since(start).Nanoseconds()) / float64(reps*len(clients))
		start = time.Now()
		for r := 0; r < reps; r++ {
			for _, c := range clients {
				nRecomputed += len(recompute(c.where))
			}
		}
		recNs := float64(time.Since(start).Nanoseconds()) / float64(reps*len(clients))
		nFetched /= reps
		nRecomputed /= reps

		// Untimed: each client's two answers hold the same rows.
		same := "yes"
		for _, c := range clients {
			got, _, _ := c.spool.Fetch(c.offset)
			if !sameMultiset(got, recompute(c.where)) {
				same = "no"
			}
		}
		perClient := float64(nFetched) / float64(len(clients))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d), fmt.Sprint(nFetched), fmt.Sprint(nRecomputed),
			ns(matNs), ns(recNs), f2(recNs / matNs),
			ns(matNs / perClient), ns(recNs / float64(d)), same,
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d standing selections (one per symbol, 1/%d of the rows each) submitted detached on core.System, spool capacity %d; latencies are per reconnect, averaged over clients and %d repetitions", len(syms), len(syms), capacity, reps),
		"materialized = one Spool.Fetch from the client's last offset; recompute = Archive.ScanRange over the missed sequence range plus the WHERE predicate",
		"fetched/recomputed count rows over all clients; 'same rows' compares each client's two answers as multisets")
	return t
}

// sameMultiset reports whether the spooled text holds the same rows as
// want, compared as wire lines (Tuple.AppendText), in any order.
func sameMultiset(text []byte, want []*tuple.Tuple) bool {
	n := map[string]int{}
	for _, line := range bytes.SplitAfter(text, []byte("\n")) {
		if len(line) > 0 {
			n[string(line)]++
		}
	}
	var buf []byte
	for _, r := range want {
		buf = append(r.AppendText(buf[:0]), '\n')
		k := string(buf)
		if n[k]--; n[k] < 0 {
			return false
		}
	}
	for _, c := range n {
		if c != 0 {
			return false
		}
	}
	return true
}
