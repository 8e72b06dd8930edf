package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// Every float the workloads generate is a multiple of 1/8, carried as an
// int32 count of eighths. Eighths are exact in float64, so sums, averages
// and comparisons come out bit-identical whatever order the engine folds
// them in, and the checker can compare result text byte for byte.
const eighth = 8

// The wire shape every workload shares. The last row of each blockRows
// block is a marker row: it matches only the workload's marker query, and
// its result tells the generator that the daemon has processed every row
// up to it. Flood keeps at most floodWindow rows unacknowledged; that is
// the daemon's default QueueCap and SubscriptionCap, so no queue on the
// path can overflow and any lost row is a real failure.
const (
	blockRows   = 512
	floodWindow = 4096
	markerKey   = -1
	markerSym   = "MARK"
)

// withBlock makes ingress lossless: a full queue stalls the wrapper
// connection instead of shedding. The default 100 ms block timeout would
// turn a scheduler hiccup on a busy box into lost rows, so it is raised.
const withBlock = " WITH (overflow='block', timeout_ms=10000)"

type queryKind uint8

const (
	kSelect queryKind = iota // sym = key AND lo < val <= hi; projects the whole row
	kWide                    // val > lo; SELECT *
	kJoin                    // a.sym = b.sym AND a.val > b.val [AND a.val > lo]
	kAgg                     // grouped window aggregate
	kMarker                  // key = markerKey; projects id
)

// query is one standing statement plus the parameters the checker needs
// to evaluate it without the engine.
type query struct {
	sql  string
	kind queryKind
	key  int   // kSelect: symbol index
	lo   int32 // eighths; kJoin: extra a.val > lo filter (math.MinInt32 = none)
	hi   int32 // eighths
	// kAgg: the window is seq in [t-width+1, t], t = 0, hop, 2*hop, ...
	// variant 0 projects max(id),count(*),avg(v); variant 1 max(id),min(v),sum(v).
	hop, width, variant int
}

// workload is one traffic mix. rate is frozen: it was set once, on the
// 2-core reference box, to between a fifth and a third of the seed's
// flood_rows_per_s (see README.md for each choice) and is never adapted at
// run time. floodRate only sizes the flood phase (rows =
// floodRate x flood seconds), so flood measures a fixed amount of work.
type workload struct {
	name      string
	rate      int
	floodRate int
	streams   []string // stream names; index = input.strm
	ddl       []string
	churn     bool // 5 submit+CLOSE pairs/s of fresh selections beside the data
	queries   func(rng *rand.Rand) []query
	// stream picks row id's stream; nil means every row is streams[0].
	stream func(id int) uint8
	// row appends row id's fields (no stream prefix, no '\n').
	row func(rng *rand.Rand, id int, dst []byte) (out []byte, key int16, val int32)
	// markerRow appends the marker line for id.
	markerRow func(id int, dst []byte) []byte
}

var workloads = []*workload{sharedSelect, widePassthrough, windowJoin, windowAgg}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func appendEighths(dst []byte, v int32) []byte {
	return strconv.AppendFloat(dst, float64(v)/eighth, 'g', -1, 64)
}

func fmtEighths(v int32) string { return string(appendEighths(nil, v)) }

func appendSym(dst []byte, prefix byte, k int16) []byte {
	dst = append(dst, prefix, byte('0'+k/10), byte('0'+k%10))
	return dst
}

// ------------------------------------------------------------ shared-select

const (
	selSyms    = 64
	selQueries = 256
	selBand    = 20  // eighths: 2.5 price units, so 256 queries emit ~0.1 rows per input row
	priceSpan  = 800 // eighths: prices are uniform in [0, 100)
)

func selectSQL(key int, lo, hi int32) string {
	return fmt.Sprintf("SELECT id,sym,price FROM quotes WHERE sym='S%02d' AND price>%s AND price<=%s",
		key, fmtEighths(lo), fmtEighths(hi))
}

func quoteRow(rng *rand.Rand, id int, dst []byte, key int16) ([]byte, int32) {
	val := int32(rng.Intn(priceSpan))
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ',')
	dst = appendSym(dst, 'S', key)
	dst = append(dst, ',')
	return appendEighths(dst, val), val
}

func quoteMarker(id int, dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, ","+markerSym+",0"...)
}

var sharedSelect = &workload{
	name:      "shared-select",
	rate:      100000,
	floodRate: 450000,
	streams:   []string{"quotes"},
	ddl:       []string{"CREATE STREAM quotes (id int, sym string, price float)" + withBlock},
	churn:     true,
	queries: func(rng *rand.Rand) []query {
		qs := make([]query, 0, selQueries+1)
		for i := 0; i < selQueries; i++ {
			lo := int32(rng.Intn(priceSpan - selBand))
			q := query{kind: kSelect, key: i % selSyms, lo: lo, hi: lo + selBand}
			q.sql = selectSQL(q.key, q.lo, q.hi)
			qs = append(qs, q)
		}
		return append(qs, query{kind: kMarker, sql: "SELECT id FROM quotes WHERE sym='" + markerSym + "'"})
	},
	row: func(rng *rand.Rand, id int, dst []byte) ([]byte, int16, int32) {
		key := int16(rng.Intn(selSyms))
		dst, val := quoteRow(rng, id, dst, key)
		return dst, key, val
	},
	markerRow: quoteMarker,
}

// churnQuery is the j-th fresh selection of the shared-select side
// traffic; like the standing ones but drawn from its own sequence.
func churnQuery(seed int64, j int) query {
	rng := rand.New(rand.NewSource(seed*7919 + int64(j) + 1))
	lo := int32(rng.Intn(priceSpan - 4*selBand))
	q := query{kind: kSelect, key: rng.Intn(selSyms), lo: lo, hi: lo + 4*selBand}
	q.sql = selectSQL(q.key, q.lo, q.hi)
	return q
}

// --------------------------------------------------------- wide-passthrough

const wideCut = 10 * eighth // v0 > 10 keeps 719/800 = 90% of rows

var widePassthrough = &workload{
	name:      "wide-passthrough",
	rate:      140000,
	floodRate: 420000,
	streams:   []string{"ticks"},
	ddl: []string{"CREATE STREAM ticks (id int, n0 int, n1 int, s0 string, s1 string, v0 float, v1 float, v2 float)" +
		withBlock},
	queries: func(*rand.Rand) []query {
		return []query{
			{kind: kWide, lo: wideCut,
				sql: "SUBSCRIBE SELECT * FROM ticks WHERE v0 > " + fmtEighths(wideCut) + withBlock},
			{kind: kMarker, sql: "SELECT id FROM ticks WHERE s0='" + markerSym + "'"},
		}
	},
	row: func(rng *rand.Rand, id int, dst []byte) ([]byte, int16, int32) {
		val := int32(rng.Intn(priceSpan))
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(rng.Intn(1000000)), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(rng.Intn(1000)), 10)
		dst = append(dst, ",src"...)
		dst = strconv.AppendInt(dst, int64(rng.Intn(32)), 10)
		dst = append(dst, ",host-"...)
		dst = strconv.AppendInt(dst, int64(rng.Intn(5000)), 10)
		dst = append(dst, ',')
		dst = appendEighths(dst, val)
		dst = append(dst, ',')
		dst = appendEighths(dst, int32(rng.Intn(80000)))
		dst = append(dst, ',')
		dst = appendEighths(dst, int32(rng.Intn(80000)))
		return dst, 0, val
	},
	markerRow: func(id int, dst []byte) []byte {
		dst = strconv.AppendInt(dst, int64(id), 10)
		return append(dst, ",0,0,"+markerSym+",m,0,0,0"...)
	},
}

// -------------------------------------------------------------- window-join

const (
	joinKeys   = 64
	joinWidth  = 1001 // WindowIs(x, t-1000, t): each SteM keeps its 1001 newest rows
	joinNewsIn = 10   // every 10th row is news: quotes:news = 9:1
	// Scores are uniform in [92, 112), prices in [0, 100): about 1.6% of
	// same-symbol pairs satisfy price > score, so a probe that meets ~25
	// candidates emits ~0.4 rows and SteM work, not egress, dominates.
	scoreLo   = 92 * eighth
	scoreSpan = 20 * eighth
	joinCut   = 96 * eighth // the second query's single-stream selection
	// A probe runs after its whole EO quantum (up to 256 rows) has been
	// built and evicted, so a stored row within joinSlack same-stream
	// arrivals of the eviction edge may or may not still be there.
	joinSlack = 255
)

const joinWindow = " FOR (t=ST;;t+=1){WindowIs(a,t-1000,t);WindowIs(b,t-1000,t);}"

// zipfCDF is a mild Zipf (exponent 0.5) over n keys: the hottest key is
// 8x the coldest of 64, enough to make bucket lengths uneven without one
// key swallowing the window.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Sqrt(float64(k+1))
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

var joinCDF = zipfCDF(joinKeys)

func zipfKey(rng *rand.Rand) int16 {
	k := sort.SearchFloat64s(joinCDF, rng.Float64())
	if k >= joinKeys {
		k = joinKeys - 1
	}
	return int16(k)
}

// newsOrQuote interleaves the two streams deterministically: stream 1
// (news) on every joinNewsIn-th row, stream 0 (quotes) otherwise.
func newsOrQuote(id int) uint8 {
	if id%joinNewsIn == joinNewsIn-1 {
		return 1
	}
	return 0
}

var windowJoin = &workload{
	name:      "window-join",
	rate:      10000,
	floodRate: 36000,
	streams:   []string{"quotes", "news"},
	ddl: []string{
		"CREATE STREAM quotes (id int, sym string, price float)" + withBlock,
		"CREATE STREAM news (id int, sym string, score float)" + withBlock,
	},
	queries: func(*rand.Rand) []query {
		const sel = "SUBSCRIBE SELECT a.id,b.id,a.sym FROM quotes AS a, news AS b WHERE a.sym=b.sym AND a.price>b.score"
		return []query{
			{kind: kJoin, lo: math.MinInt32, sql: sel + joinWindow + withBlock},
			{kind: kJoin, lo: joinCut, sql: sel + " AND a.price>" + fmtEighths(joinCut) + joinWindow + withBlock},
			// Same alias as the joins, so the marker query lands on their
			// EO and adds no second copy of each quote. It carries their
			// window too: a query over alias a with no window would pin
			// every row in SteM(a) for ever, for all three.
			{kind: kMarker, sql: "SELECT a.id FROM quotes AS a WHERE a.sym='" + markerSym + "'" +
				" FOR (t=ST;;t+=1){WindowIs(a,t-1000,t);}"},
		}
	},
	stream: newsOrQuote,
	row: func(rng *rand.Rand, id int, dst []byte) ([]byte, int16, int32) {
		key := zipfKey(rng)
		if newsOrQuote(id) == 1 {
			val := int32(scoreLo + rng.Intn(scoreSpan))
			dst = strconv.AppendInt(dst, int64(id), 10)
			dst = append(dst, ',')
			dst = appendSym(dst, 'S', key)
			dst = append(dst, ',')
			return appendEighths(dst, val), key, val
		}
		dst, val := quoteRow(rng, id, dst, key)
		return dst, key, val
	},
	markerRow: quoteMarker,
}

// --------------------------------------------------------------- window-agg

// aggGroups is 8, not the 64 first proposed: 64 groups at hop 100 emit
// 2.6 result rows per input row, and the per-row cursor write, not the
// window fold, would dominate. 8 groups emit ~0.4.
const aggGroups = 8

var aggHops = []int{100, 500}
var aggWidths = []int{1000, 5000}
var aggItems = []string{"k, max(id), count(*), avg(v)", "k, max(id), min(v), sum(v)"}

var windowAgg = &workload{
	name:      "window-agg",
	rate:      40000,
	floodRate: 120000,
	streams:   []string{"readings"},
	ddl:       []string{"CREATE STREAM readings (id int, k string, v float)" + withBlock},
	queries: func(*rand.Rand) []query {
		var qs []query
		for _, hop := range aggHops {
			for _, width := range aggWidths {
				for variant, items := range aggItems {
					qs = append(qs, query{kind: kAgg, hop: hop, width: width, variant: variant,
						sql: fmt.Sprintf("SELECT %s FROM readings GROUP BY k FOR (t=ST;;t+=%d){WindowIs(readings,t-%d,t);}",
							items, hop, width-1)})
				}
			}
		}
		return append(qs, query{kind: kMarker, sql: "SELECT id FROM readings WHERE k='" + markerSym + "'"})
	},
	row: func(rng *rand.Rand, id int, dst []byte) ([]byte, int16, int32) {
		key := int16(rng.Intn(aggGroups))
		val := int32(rng.Intn(priceSpan))
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ',')
		dst = appendSym(dst, 'K', key)
		dst = append(dst, ',')
		return appendEighths(dst, val), key, val
	},
	markerRow: quoteMarker,
}
