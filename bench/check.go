package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// checker computes, from the generated values alone, what every standing
// query must deliver, and judges each result row the daemon sent. Nothing
// here calls the engine; gen_test.go holds it against refimpl.RunReference.
type checker struct {
	in *input
	qs []query

	// want[q] is the exact number of result rows query q owes (for a
	// join: the rows that must arrive whatever the EO's batching; rows at
	// the eviction edge are allowed, not owed).
	want []int
	// cnt[s][i] = rows of stream s among rows 0..i (join workload only).
	cnt [2][]int32
	agg map[aggKey]aggVal

	got       []int // valid distinct rows seen per query (joins: owed rows only)
	edge      int   // join rows at the eviction edge that did arrive
	seen      map[seenKey]struct{}
	seenBits  [][]uint64 // per query, for the one-row-per-id kinds
	bad       int        // unexpected, duplicate or mismatched rows
	firstBad  string
	churnRows int
}

// seenKey names one delivered row: q is the standing query (or -1-j for
// churn selection j), k the row's identity within it.
type seenKey struct {
	q int32
	k uint64
}

type aggKey struct {
	q uint8
	g int16
	t int32
}

type aggVal struct {
	maxID, count, min int32
	sum               int64
}

func newChecker(in *input, qs []query) *checker {
	c := &checker{
		in: in, qs: qs,
		want:     make([]int, len(qs)),
		got:      make([]int, len(qs)),
		seen:     map[seenKey]struct{}{},
		seenBits: make([][]uint64, len(qs)),
	}
	n := in.n()
	var joins, selects, aggs []int
	for qi, q := range qs {
		switch q.kind {
		case kJoin:
			joins = append(joins, qi)
		case kSelect:
			selects = append(selects, qi)
		case kAgg:
			aggs = append(aggs, qi)
		case kWide, kMarker:
			c.seenBits[qi] = make([]uint64, (n+63)/64)
			for i := 0; i < n; i++ {
				if c.matches(q, i) {
					c.want[qi]++
				}
			}
		}
	}
	if len(selects) > 0 {
		byKey := map[int][]int{}
		for _, qi := range selects {
			byKey[qs[qi].key] = append(byKey[qs[qi].key], qi)
		}
		for i := 0; i < n; i++ {
			for _, qi := range byKey[int(in.key[i])] {
				if c.matches(qs[qi], i) {
					c.want[qi]++
				}
			}
		}
	}
	if len(joins) > 0 {
		c.expectJoins(joins)
	}
	if len(aggs) > 0 {
		c.agg = map[aggKey]aggVal{}
		byWindow := map[[2]int][]int{} // queries that differ only in their aggregates share the fold
		for _, qi := range aggs {
			k := [2]int{qs[qi].hop, qs[qi].width}
			byWindow[k] = append(byWindow[k], qi)
		}
		for _, qis := range byWindow {
			c.expectAgg(qis)
		}
	}
	return c
}

// matches evaluates a single-stream predicate on row i.
func (c *checker) matches(q query, i int) bool {
	switch q.kind {
	case kSelect:
		return int(c.in.key[i]) == q.key && c.in.val[i] > q.lo && c.in.val[i] <= q.hi
	case kWide:
		return c.in.key[i] != markerKey && c.in.val[i] > q.lo
	case kMarker:
		return c.in.key[i] == markerKey
	}
	return false
}

// ---------------------------------------------------------------- joins

// The engine's windowed join is a symmetric hash join whose SteMs keep,
// per stream, the joinWidth newest rows by that stream's own sequence
// number. A pair is produced once, when its later row arrives and probes
// the other stream's SteM. The reference semantics (refimpl) apply the
// eviction horizon as of the probing row; the engine applies it as of the
// end of the EO quantum the probing row was drained in, up to joinSlack
// rows later. So a stored row within that distance of the edge may be
// gone already: such pairs are allowed but not owed.

// joinPair classifies the pair (stored row s, probing row p), s < p.
func (c *checker) joinPair(s, p int) (allowed, owed bool) {
	st := c.in.strm[s]
	seq := c.cnt[st][s] // s's 1-based sequence number on its stream
	if seq < c.cnt[st][p]-joinWidth+1 {
		return false, false
	}
	last := p + joinSlack
	if last >= c.in.n() {
		last = c.in.n() - 1
	}
	return true, seq >= c.cnt[st][last]-joinWidth+1
}

// joinPred is the value part of join query q on quote row a, news row b.
func (c *checker) joinPred(q query, a, b int) bool {
	return c.in.key[a] == c.in.key[b] && c.in.key[a] != markerKey &&
		c.in.val[a] > c.in.val[b] && c.in.val[a] > q.lo
}

func (c *checker) expectJoins(joins []int) {
	in := c.in
	n := in.n()
	for s := range c.cnt {
		c.cnt[s] = make([]int32, n)
	}
	var run [2]int32
	for i := 0; i < n; i++ {
		run[in.strm[i]]++
		c.cnt[0][i], c.cnt[1][i] = run[0], run[1]
	}
	// Per stream and key, the stored rows still inside the window, oldest
	// first; head[] trims the evicted ones.
	var stored [2][joinKeys][]int32
	var head [2][joinKeys]int
	for p := 0; p < n; p++ {
		k := in.key[p]
		if k == markerKey {
			continue
		}
		ps := in.strm[p]
		ss := 1 - ps
		rows := stored[ss][k]
		h := head[ss][k]
		for h < len(rows) && c.cnt[ss][rows[h]] < c.cnt[ss][p]-joinWidth+1 {
			h++
		}
		head[ss][k] = h
		for _, s := range rows[h:] {
			a, b := int(s), p
			if ps == 0 {
				a, b = p, int(s)
			}
			_, owed := c.joinPair(int(s), p)
			if !owed {
				continue
			}
			for _, qi := range joins {
				if c.joinPred(c.qs[qi], a, b) {
					c.want[qi]++
				}
			}
		}
		stored[ps][k] = append(stored[ps][k], int32(p))
	}
}

// ----------------------------------------------------------- aggregates

// expectAgg replays the for-loop of queries qis, which share hop and
// width: window t covers sequence numbers [t-width+1, t] (row i has
// sequence i+1) and is emitted once a row with a larger sequence number
// exists, one result row per populated group.
func (c *checker) expectAgg(qis []int) {
	q := c.qs[qis[0]]
	in := c.in
	n := in.n()
	const groups = aggGroups + 1 // the marker rows form a group of their own
	for t := 0; t < n; t += q.hop {
		var acc [groups]aggVal
		lo := t - q.width + 1
		if lo < 1 {
			lo = 1
		}
		for seq := lo; seq <= t; seq++ {
			i := seq - 1
			g := int(in.key[i])
			if g == markerKey {
				g = aggGroups
			}
			a := &acc[g]
			v := in.val[i]
			if a.count == 0 || v < a.min {
				a.min = v
			}
			a.count++
			a.sum += int64(v)
			a.maxID = int32(i)
		}
		for g := range acc {
			if acc[g].count == 0 {
				continue
			}
			for _, qi := range qis {
				c.agg[aggKey{q: uint8(qi), g: int16(g), t: int32(t)}] = acc[g]
				c.want[qi]++
			}
		}
	}
}

func aggGroup(sym []byte) (int, bool) {
	if string(sym) == markerSym {
		return aggGroups, true
	}
	if len(sym) == 3 && sym[0] == 'K' {
		g := int(sym[1]-'0')*10 + int(sym[2]-'0')
		return g, g >= 0 && g < aggGroups
	}
	return 0, false
}

// appendAgg renders the result row the engine owes for one group of one
// window: t, k, then the variant's aggregates.
func appendAgg(dst []byte, q query, t int, sym []byte, a aggVal) []byte {
	dst = strconv.AppendInt(dst, int64(t), 10)
	dst = append(dst, ',')
	dst = append(dst, sym...)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(a.maxID), 10)
	dst = append(dst, ',')
	if q.variant == 0 {
		dst = strconv.AppendInt(dst, int64(a.count), 10)
		dst = append(dst, ',')
		return strconv.AppendFloat(dst, float64(a.sum)/eighth/float64(a.count), 'g', -1, 64)
	}
	dst = appendEighths(dst, a.min)
	dst = append(dst, ',')
	return strconv.AppendFloat(dst, float64(a.sum)/eighth, 'g', -1, 64)
}

// ------------------------------------------------------------- judging

func (c *checker) reject(why string, payload []byte) {
	c.bad++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("%s: %q", why, payload)
	}
}

// fields splits a result payload at commas (values never contain one).
func fields(payload []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	for {
		i := bytes.IndexByte(payload, ',')
		if i < 0 {
			return append(dst, payload)
		}
		dst = append(dst, payload[:i])
		payload = payload[i+1:]
	}
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

// judge checks one result row of standing query qi and returns the id of
// the input row whose arrival produced it (-1 when the row is rejected):
// the row itself for a selection, the later of the pair for a join, the
// first row past the window for an aggregate.
func (c *checker) judge(qi int, payload []byte) int {
	q := c.qs[qi]
	var fbuf [8][]byte
	f := fields(payload, fbuf[:0])
	switch q.kind {
	case kSelect, kWide, kMarker:
		id, ok := atoi(f[0])
		if !ok || id >= c.in.n() || !c.matches(q, id) {
			c.reject("row matches no input", payload)
			return -1
		}
		want := c.in.payload(id)
		if q.kind == kMarker {
			want = f[0]
			if len(f) != 1 {
				want = nil
			}
		}
		if !bytes.Equal(payload, want) {
			c.reject("row differs from its input", payload)
			return -1
		}
		if bits := c.seenBits[qi]; bits != nil {
			if bits[id/64]&(1<<(id%64)) != 0 {
				c.reject("duplicate row", payload)
				return -1
			}
			bits[id/64] |= 1 << (id % 64)
		} else if !c.first(qi, uint64(id)) {
			c.reject("duplicate row", payload)
			return -1
		}
		c.got[qi]++
		return id
	case kJoin:
		if len(f) != 3 {
			c.reject("malformed join row", payload)
			return -1
		}
		a, ok1 := atoi(f[0])
		b, ok2 := atoi(f[1])
		n := c.in.n()
		var symBuf [3]byte
		if !ok1 || !ok2 || a >= n || b >= n || c.in.strm[a] != 0 || c.in.strm[b] != 1 ||
			!c.joinPred(q, a, b) || !bytes.Equal(f[2], appendSym(symBuf[:0], 'S', c.in.key[a])) {
			c.reject("pair does not satisfy the join", payload)
			return -1
		}
		s, p := a, b
		if s > p {
			s, p = p, s
		}
		allowed, owed := c.joinPair(s, p)
		if !allowed {
			c.reject("pair spans more than the window", payload)
			return -1
		}
		if !c.first(qi, uint64(a)<<32|uint64(b)) {
			c.reject("duplicate pair", payload)
			return -1
		}
		if owed {
			c.got[qi]++
		} else {
			c.edge++
		}
		return p
	case kAgg:
		if len(f) != 5 {
			c.reject("malformed aggregate row", payload)
			return -1
		}
		t, ok := atoi(f[0])
		g, okg := aggGroup(f[1])
		if !ok || !okg {
			c.reject("malformed aggregate row", payload)
			return -1
		}
		k := aggKey{q: uint8(qi), g: int16(g), t: int32(t)}
		a, found := c.agg[k]
		if !found {
			c.reject("unexpected or duplicate window row", payload)
			return -1
		}
		var buf [96]byte
		if !bytes.Equal(payload, appendAgg(buf[:0], q, t, f[1], a)) {
			c.reject("aggregate differs", payload)
			return -1
		}
		delete(c.agg, k)
		c.got[qi]++
		return t // row t carries sequence t+1, the first past the window
	}
	return -1
}

// first records key for query qi and reports whether it is new.
func (c *checker) first(qi int, key uint64) bool {
	k := seenKey{q: int32(qi), k: key}
	if _, dup := c.seen[k]; dup {
		return false
	}
	c.seen[k] = struct{}{}
	return true
}

// judgeChurn checks a row of a short-lived churn selection. Which rows it
// sees depends on when it was registered, so only validity is checked:
// the row is an input row, it satisfies the predicate, it came once.
func (c *checker) judgeChurn(churnIdx int, q query, payload []byte) {
	var fbuf [8][]byte
	f := fields(payload, fbuf[:0])
	id, ok := atoi(f[0])
	switch {
	case !ok || id >= c.in.n() || !c.matches(q, id):
		c.reject("churn row matches no input", payload)
	case !bytes.Equal(payload, c.in.payload(id)):
		c.reject("churn row differs from its input", payload)
	case !c.first(-1-churnIdx, uint64(id)):
		c.reject("duplicate churn row", payload)
	default:
		c.churnRows++
	}
}

// missing is the number of owed rows that never arrived.
func (c *checker) missing() int {
	m := 0
	for qi := range c.qs {
		if d := c.want[qi] - c.got[qi]; d > 0 {
			m += d
		}
	}
	return m
}

// owed is the total number of result rows the standing queries owe.
func (c *checker) owed() int {
	t := 0
	for _, w := range c.want {
		t += w
	}
	return t
}
