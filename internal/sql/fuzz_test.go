package sql

import "testing"

// FuzzParse feeds arbitrary text to the parser, seeded with the
// statements parser_test.go exercises. Parse must never panic, and a
// statement it accepts must not be nil.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`CREATE STREAM ClosingStockPrices (timestamp int, stockSymbol string, closingPrice float)`,
		`CREATE STREAM ticks (price float) ARCHIVED WITH (overflow = 'drop-oldest')`,
		`CREATE STREAM s (v int) WITH (overflow = block, timeout_ms = 250)`,
		`CREATE STREAM s (v int) WITH (overflow = 'sample', rate = 0.25)`,
		`CREATE TABLE companies (sym string, hq string)`,
		`INSERT INTO companies VALUES ('MSFT', 'Redmond'), ('IBM', 'Armonk')`,
		`INSERT INTO x VALUES (1, -2.5, 'a''b', true, false, null)`,
		`DROP STREAM s`,
		`SELECT closingPrice, timestamp FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'
			for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }`,
		`SELECT closingPrice, timestamp FROM ClosingStockPrices
			WHERE stockSymbol = 'MSFT' and closingPrice > 50.00
			for (t = 101; t <= 1000; t++) { WindowIs(ClosingStockPrices, 101, t); }`,
		`Select AVG(closingPrice) From ClosingStockPrices Where stockSymbol = 'MSFT'
			for (t = ST; t < ST + 50; t += 5) { WindowIs(ClosingStockPrices, t - 4, t); }`,
		`Select c2.* FROM ClosingStockPrices as c1, ClosingStockPrices as c2
			WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and
			c2.closingPrice > c1.closingPrice and c2.timestamp = c1.timestamp
			for (t = ST; t < ST + 20; t++) { WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }`,
		`SELECT DISTINCT sym, count(*) AS n FROM trades GROUP BY sym ORDER BY sym DESC, n LIMIT 10`,
		`SELECT x FROM stream1 a, stream2 b WHERE a.x = b.y`,
		`SELECT a FROM s WHERE a + 2 * 3 = 7 OR NOT b > 1 AND c < 2`,
		`SELECT a FROM s for (t = 0; ; t++) { WindowIs(s, 5, t - ST - 10) }`,
		`SELECT a FROM s for (t = 0; t == 0; t -= 3) { WindowIs(s, 1, 2) }`,
		`SELECT id FROM q FOR (t = ST; t > ST - 40; t -= 20) { WindowIs(q, t - 19, t); }`,
		`SELECT avg(v) FROM s FOR PHYSICAL (t = ST; ; t += 1000) { WindowIs(s, t - 999, t); }`,
		`SUBSCRIBE 7`,
		`SUBSCRIBE 3 WITH (overflow = 'drop-oldest', queue = 128, cohort = 'c', replay = 10)`,
		`SUBSCRIBE SELECT sym, price FROM trades WHERE price > 10`,
		`SHOW STATS LIKE 'tcq_eddy_'`,
		`SELECT 'unterminated FROM s`,
		"a<=b<>c!='x''y'--comment\n3.5.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err == nil && st == nil {
			t.Fatalf("Parse(%q) accepted a nil statement", src)
		}
	})
}
