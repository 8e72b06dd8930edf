// Historical browsing and disconnected operation: backward-moving
// windows (§4.1.1) over an ARCHIVED stream, and the PSoup modality
// (§3.2) of a client that disconnects and later retrieves the results
// materialized while it was away.
//
// The example archives a year of ticks to disk, then:
//  1. browses history with a backward-moving window ("windows that move
//     backwards starting from the present time"), programmatically and
//     via SQL,
//  2. reconnects a client whose standing query kept running while it was
//     away, and fetches what it missed from the query's spool,
//  3. answers a late query over all history with backward-window SQL.
//
// Run with:
//
//	go run ./examples/historical
package main

import (
	"fmt"
	"log"
	"os"

	"telegraphcq"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
	"telegraphcq/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "tcq-historical")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db := telegraphcq.New(telegraphcq.Options{DataDir: dir})
	defer db.Close()
	db.MustExec(`CREATE STREAM ClosingStockPrices (
		timestamp int, stockSymbol string, closingPrice float) ARCHIVED`)

	// A standing query registered before the data, with a spool that
	// materializes its results for a client that comes and goes.
	st, err := sql.Parse(`SELECT * FROM ClosingStockPrices WHERE closingPrice > 80`)
	if err != nil {
		log.Fatal(err)
	}
	id, err := db.Executor().SubmitDetached(st.(*sql.Select))
	if err != nil {
		log.Fatal(err)
	}
	spool := db.Executor().Hub().SpoolFor(id, 0)

	// Archive 250 trading days × 8 symbols. The client reads its results
	// for the first half of the year, then disconnects.
	rows := (workload.Stocks{Seed: 11}).Rows(250 * 8)
	push := func(rows []*tuple.Tuple) {
		for _, r := range rows {
			if err := db.PushAt("ClosingStockPrices", r.Values[0].I, r.Values...); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Barrier(); err != nil {
			log.Fatal(err)
		}
	}
	push(rows[:len(rows)/2])
	_, seen, offset := spool.Fetch(0)
	push(rows[len(rows)/2:])
	fmt.Printf("archived %d ticks (%d pages on disk)\n\n",
		db.Archive("ClosingStockPrices").Count(),
		db.Archive("ClosingStockPrices").Pages())

	// 1. Backward browsing: four 20-day windows walking into the past.
	fmt.Println("backward browsing from the present (20-day windows):")
	spec := telegraphcq.Backward("ClosingStockPrices", 20, 20, 4)
	err = db.ScanHistory("ClosingStockPrices", spec, db.CurSeq("ClosingStockPrices"),
		func(inst window.Instance, rows []*tuple.Tuple) bool {
			r := inst.Ranges["ClosingStockPrices"]
			var hi float64
			for _, t := range rows {
				if t.Values[1].S == "MSFT" && t.Values[2].F > hi {
					hi = t.Values[2].F
				}
			}
			fmt.Printf("  days %3d..%3d: %3d ticks, MSFT high %.2f\n", r.Left, r.Right, len(rows), hi)
			return true
		})
	if err != nil {
		log.Fatal(err)
	}

	// 1b. The same browsing, via SQL: a backward-moving FOR loop over an
	// ARCHIVED stream is served from the archive and completes at once.
	hq, err := db.Submit(`
		SELECT max(closingPrice) FROM ClosingStockPrices
		WHERE stockSymbol = 'MSFT'
		FOR (t = ST; t > ST - 80; t -= 20) {
			WindowIs(ClosingStockPrices, t - 19, t);
		}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthe same via SQL (MSFT 20-day highs, walking back):")
	for {
		row, ok := hq.TryNext()
		if !ok {
			break
		}
		fmt.Printf("  t=%s  max=%s\n", row.Values[0], row.Values[1])
	}

	// 2. The disconnected client reconnects: the standing query kept
	// running, so what it missed is already materialized in the spool.
	_, missed, _ := spool.Fetch(offset)
	fmt.Printf("\ndisconnected client: read %d closes above $80 before leaving, fetched %d more on reconnect\n",
		seen, missed)

	// 3. A query registered after the data sees history through a
	// backward window over the archive (a forward standing query starts
	// at the present).
	late, err := db.Submit(`
		SELECT count(*) FROM ClosingStockPrices
		WHERE closingPrice > 99
		FOR (t = ST; t > ST - 1; t -= 1) {
			WindowIs(ClosingStockPrices, 1, t);
		}`)
	if err != nil {
		log.Fatal(err)
	}
	if row, ok := late.TryNext(); ok {
		fmt.Printf("late query over history: %s closes above $99 all year\n", row.Values[1])
	}
}
