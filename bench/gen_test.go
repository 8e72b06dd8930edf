package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"telegraphcq/internal/ingress"
	"telegraphcq/internal/refimpl"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// The same seed must give byte-identical input lines and the same
// expected-result set; another seed must change both.
func TestGeneratorIsDeterministic(t *testing.T) {
	const n = 8 * blockRows
	for _, w := range workloads {
		a, b, other := generate(w, 7, n), generate(w, 7, n), generate(w, 8, n)
		if !bytes.Equal(a.buf, b.buf) {
			t.Errorf("%s: same seed, different input bytes", w.name)
		}
		if bytes.Equal(a.buf, other.buf) {
			t.Errorf("%s: different seed, same input bytes", w.name)
		}
		if prefix := generate(w, 7, n/2); !bytes.Equal(prefix.buf, a.buf[:len(prefix.buf)]) {
			t.Errorf("%s: a shorter run is not a prefix of a longer one", w.name)
		}
		ca, cb := newChecker(a, standingQueries(w, 7)), newChecker(b, standingQueries(w, 7))
		co := newChecker(other, standingQueries(w, 8))
		if !reflect.DeepEqual(ca.want, cb.want) || !reflect.DeepEqual(ca.agg, cb.agg) {
			t.Errorf("%s: same seed, different expected results", w.name)
		}
		if reflect.DeepEqual(ca.want, co.want) && reflect.DeepEqual(ca.agg, co.agg) {
			t.Errorf("%s: different seed, same expected results", w.name)
		}
		if ca.owed() == 0 {
			t.Errorf("%s: no result rows expected at all", w.name)
		}
	}
}

// referenceSQL strips what the wire adds to a standing statement, leaving
// the SELECT the reference interpreter parses.
func referenceSQL(stmt string) string {
	return strings.TrimSuffix(strings.TrimPrefix(stmt, "SUBSCRIBE "), withBlock)
}

// referenceWorkload replays an input as a refimpl workload: every query
// registered before the first row.
func referenceWorkload(t *testing.T, w *workload, in *input, qs []query) *refimpl.Workload {
	t.Helper()
	rw := &refimpl.Workload{}
	var schemas []*tuple.Schema
	for _, ddl := range w.ddl {
		st, err := sql.Parse(ddl)
		if err != nil {
			t.Fatal(err)
		}
		cs := st.(*sql.CreateStream)
		def := refimpl.StreamDef{Name: cs.Name}
		for _, c := range cs.Cols {
			def.Cols = append(def.Cols, refimpl.ColDef{Name: c.Name, Kind: c.Kind})
		}
		rw.Streams = append(rw.Streams, def)
		schemas = append(schemas, def.Schema())
	}
	for qi, q := range qs {
		rw.Queries = append(rw.Queries, refimpl.QueryDef{SQL: referenceSQL(q.sql)})
		rw.Events = append(rw.Events, refimpl.Event{Kind: refimpl.EvAdd, Query: qi})
	}
	for i := 0; i < in.n(); i++ {
		s := in.strm[i]
		vals, err := ingress.ParseRow(schemas[s], strings.Split(string(in.payload(i)), ","))
		if err != nil {
			t.Fatal(err)
		}
		rw.Events = append(rw.Events, refimpl.Event{Kind: refimpl.EvPush, Stream: w.streams[s], Values: vals})
	}
	return rw
}

// payloadOf turns refimpl's kind-tagged row encoding into wire text.
func payloadOf(row string) []byte {
	cols := strings.Split(row, "\x1f")
	for i, c := range cols {
		cols[i] = c[1:]
	}
	return []byte(strings.Join(cols, ","))
}

// The checker computes expected results on its own; here it is held
// against the repo's reference interpreter. Every row the reference
// produces must be accepted, and they must add up to exactly what the
// checker says is owed (for joins: owed plus the eviction-edge rows the
// engine may drop). Windowed joins cost the reference O(n^3), which is
// why this runs here on a few thousand rows and not in every benchmark run.
func TestCheckerAgreesWithReference(t *testing.T) {
	t.Parallel()
	// Enough rows for every window to slide: more than 1001 quotes, more
	// than 5000 readings.
	rows := map[*workload]int{sharedSelect: 4, widePassthrough: 4, windowJoin: 3, windowAgg: 13}
	for _, w := range workloads {
		in := generate(w, 3, rows[w]*blockRows)
		qs := standingQueries(w, 3)
		if w == sharedSelect {
			qs = append(qs[:24:24], qs[len(qs)-1]) // 24 selections and the marker: the reference is slow
		}
		want, err := refimpl.RunReference(referenceWorkload(t, w, in, qs))
		if err != nil {
			t.Fatalf("%s: reference: %v", w.name, err)
		}
		chk := newChecker(in, qs)
		total := 0
		for qi := range qs {
			for row, count := range want[qi] {
				if count != 1 {
					t.Errorf("%s query %d: reference emits %q %d times", w.name, qi, row, count)
				}
				chk.judge(qi, payloadOf(row))
				total++
			}
		}
		if chk.bad != 0 {
			t.Errorf("%s: checker rejected %d reference rows, first: %s", w.name, chk.bad, chk.firstBad)
		}
		if chk.missing() != 0 {
			t.Errorf("%s: checker expects %d rows the reference does not produce", w.name, chk.missing())
		}
		if got := chk.owed() + chk.edge; got != total {
			t.Errorf("%s: checker accounts for %d rows, reference produced %d", w.name, got, total)
		}
		if total == 0 {
			t.Errorf("%s: reference produced nothing", w.name)
		}
		if w == windowJoin && (chk.edge == 0 || chk.owed() == 0) {
			t.Errorf("window-join: want both owed and eviction-edge pairs, got %d owed, %d edge", chk.owed(), chk.edge)
		}
	}
}

// Rows the engine must not produce are counted as failures.
func TestCheckerRejectsWrongRows(t *testing.T) {
	in := generate(windowJoin, 3, 6*blockRows)
	qs := standingQueries(windowJoin, 3)
	chk := newChecker(in, qs)
	// A quote and a later news row with the same symbol and a satisfied
	// predicate, but more than a window of quotes apart.
	var far, near []byte
	for a := 0; a < in.n() && (far == nil || near == nil); a++ {
		for b := a + 1; b < in.n(); b++ {
			if in.strm[a] != 0 || in.strm[b] != 1 || !chk.joinPred(qs[0], a, b) {
				continue
			}
			row := []byte(fmt.Sprintf("%d,%d,S%02d", a, b, in.key[a]))
			if allowed, _ := chk.joinPair(a, b); !allowed && far == nil {
				far = row
			} else if allowed && near == nil {
				near = row
			}
		}
	}
	if far == nil || near == nil {
		t.Fatal("input has no suitable pairs")
	}
	for _, c := range []struct {
		why     string
		payload []byte
		ok      bool
	}{
		{"a pair inside the window", near, true},
		{"the same pair again", near, false},
		{"a pair spanning more than the window", far, false},
		{"a pair of the wrong streams", []byte("9,10,S01"), false},
		{"garbage", []byte("x"), false},
	} {
		before := chk.bad
		chk.judge(0, c.payload)
		if accepted := chk.bad == before; accepted != c.ok {
			t.Errorf("%s (%q): accepted=%v, want %v", c.why, c.payload, accepted, c.ok)
		}
	}

	in = generate(windowAgg, 3, 4*blockRows)
	qs = standingQueries(windowAgg, 3)
	chk = newChecker(in, qs)
	var k aggKey
	for k = range chk.agg {
		if k.q == 0 && k.g < aggGroups {
			break
		}
	}
	sym := appendSym(nil, 'K', k.g)
	good := appendAgg(nil, qs[0], int(k.t), sym, chk.agg[k])
	off := chk.agg[k]
	off.count++
	if chk.judge(0, appendAgg(nil, qs[0], int(k.t), sym, off)); chk.bad != 1 {
		t.Errorf("a wrong count was accepted")
	}
	if chk.judge(0, good); chk.bad != 1 {
		t.Errorf("the right window row was rejected: %s", chk.firstBad)
	}
	if chk.judge(0, good); chk.bad != 2 {
		t.Errorf("a duplicate window row was accepted")
	}
}
