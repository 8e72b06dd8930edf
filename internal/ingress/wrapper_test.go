package ingress

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"telegraphcq/internal/tuple"
)

// shortConn is a net.Conn over a fixed input that hands out random short
// reads and records everything written back.
type shortConn struct {
	net.Conn
	in  []byte
	rng *rand.Rand // nil: every read takes all that fits
	max int
	out bytes.Buffer
}

func (c *shortConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.in))
	if c.rng != nil {
		n = min(n, 1+c.rng.Intn(c.max))
	}
	copy(p, c.in[:n])
	c.in = c.in[n:]
	return n, nil
}

func (c *shortConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// recordSink keeps a printed copy of every admitted row and refuses the
// rows of one stream, as the executor refuses a dropped stream.
type recordSink struct {
	refuse string
	rows   []string
}

func (r *recordSink) batch(streams []string, rows [][]tuple.Value, refuse func(int, error)) {
	for i, vals := range rows {
		if streams[i] == r.refuse {
			refuse(i, errors.New("gone"))
			continue
		}
		r.rows = append(r.rows, fmt.Sprintf("%s %#v", streams[i], vals))
	}
}

// wrapperReference is the Wrapper's contract stated one line at a time:
// line numbers count every line, blank ones too; a line is trimmed,
// split on commas and parsed with ParseRow; each bad line is answered in
// line order.
func wrapperReference(schemas map[string]*tuple.Schema, refuse, input string) (rows []string, replies string) {
	lines := strings.Split(input, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	var out strings.Builder
	reject := func(n int, why string) {
		fmt.Fprintf(&out, "error %d %s\n", n, strings.ReplaceAll(why, "\n", " "))
	}
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		idx := strings.IndexByte(line, ',')
		if idx < 0 {
			reject(i+1, "expected stream,field,... line")
			continue
		}
		stream := line[:idx]
		schema := schemas[stream]
		if schema == nil {
			reject(i+1, fmt.Sprintf("unknown stream %q", stream))
			continue
		}
		vals, err := ParseRow(schema, strings.Split(line[idx+1:], ","))
		if err != nil {
			reject(i+1, err.Error())
			continue
		}
		if stream == refuse {
			reject(i+1, "gone")
			continue
		}
		rows = append(rows, fmt.Sprintf("%s %#v", stream, vals))
	}
	return rows, out.String()
}

var fuzzKinds = []tuple.Kind{tuple.KindInt, tuple.KindFloat, tuple.KindBool, tuple.KindTime, tuple.KindString}

// fuzzField draws a field of the given kind, now and then padded, NULL
// or malformed.
func fuzzField(rng *rand.Rand, k tuple.Kind) string {
	var f string
	switch rng.Intn(12) {
	case 0:
		return "NULL"
	case 1:
		return []string{"x", "", "1.5.2", "maybe", "9223372036854775808", "null"}[rng.Intn(6)]
	}
	switch k {
	case tuple.KindInt, tuple.KindTime:
		f = strconv.Itoa(rng.Intn(2000) - 1000)
	case tuple.KindFloat:
		f = strconv.FormatFloat(rng.NormFloat64()*100, 'g', -1, 64)
	case tuple.KindBool:
		f = []string{"true", "false", "1", "F"}[rng.Intn(4)]
	default:
		f = []string{"MSFT", "a b", "", "héllo", "x\ty"}[rng.Intn(5)]
	}
	if rng.Intn(6) == 0 {
		f = " " + f + "\t"
	}
	return f
}

// FuzzWrapperReads drives PushServer.serve with generated lines — good,
// corrupt, blank, for unknown streams, spliced with the fuzzer's bytes —
// over a connection that returns random short reads, and checks the
// admitted rows and the error replies against wrapperReference.
func FuzzWrapperReads(f *testing.F) {
	for _, seed := range []struct {
		seed  int64
		extra string
	}{
		{1, ""}, {2, "s0,1\n"}, {3, "\n\n,\r\n"}, {4, "s1,NULL,NULL"}, {5, "garbage"},
	} {
		f.Add(seed.seed, []byte(seed.extra))
	}
	f.Fuzz(func(t *testing.T, seed int64, extra []byte) {
		rng := rand.New(rand.NewSource(seed))
		schemas := map[string]*tuple.Schema{}
		names := []string{}
		for s := 0; s < 1+rng.Intn(3); s++ {
			cols := make([]tuple.Column, 1+rng.Intn(4))
			for i := range cols {
				cols[i] = tuple.Column{Source: "s", Name: "c" + strconv.Itoa(i), Kind: fuzzKinds[rng.Intn(len(fuzzKinds))]}
			}
			name := "s" + strconv.Itoa(s)
			schemas[name] = tuple.NewSchema(cols...)
			names = append(names, name)
		}
		refuse := ""
		if len(names) > 1 && rng.Intn(2) == 0 {
			refuse = names[len(names)-1]
		}
		var in strings.Builder
		n := rng.Intn(600)
		at := rng.Intn(n + 1)
		for i := 0; i < n; i++ {
			if i == at {
				in.Write(extra)
			}
			name := names[rng.Intn(len(names))]
			switch rng.Intn(20) {
			case 0:
				in.WriteString("\n")
				continue
			case 1:
				name = "unknown"
			case 2:
				in.WriteString("nocomma\n")
				continue
			}
			in.WriteString(name)
			cols := schemas[name]
			arity := 2
			if cols != nil {
				arity = cols.Arity()
			}
			if rng.Intn(15) == 0 {
				arity += rng.Intn(3) - 1 // wrong arity
			}
			for c := 0; c < arity; c++ {
				k := tuple.KindString
				if cols != nil && c < cols.Arity() {
					k = cols.Cols[c].Kind
				}
				in.WriteString("," + fuzzField(rng, k))
			}
			if rng.Intn(10) == 0 {
				in.WriteString("\r")
			}
			in.WriteString("\n")
		}
		if at == n {
			in.Write(extra)
		}
		input := in.String()

		wantRows, wantReplies := wrapperReference(schemas, refuse, input)
		sink := &recordSink{refuse: refuse}
		s := NewPushServer(sink.batch)
		for name, sch := range schemas {
			s.Register(name, sch)
		}
		conn := &shortConn{in: []byte(input), rng: rng, max: 1 + rng.Intn(300)}
		s.serve(conn)
		if got := conn.out.String(); got != wantReplies {
			t.Fatalf("replies differ:\ngot  %q\nwant %q\ninput %q", got, wantReplies, input)
		}
		if len(sink.rows) != len(wantRows) {
			t.Fatalf("admitted %d rows, want %d\ninput %q", len(sink.rows), len(wantRows), input)
		}
		for i := range wantRows {
			if sink.rows[i] != wantRows[i] {
				t.Fatalf("row %d: got %s, want %s", i, sink.rows[i], wantRows[i])
			}
		}
		if s.Rows() != int64(len(wantRows)) || s.Errs() != int64(strings.Count(wantReplies, "\n")) {
			t.Fatalf("counters rows=%d errs=%d, want %d and %d", s.Rows(), s.Errs(), len(wantRows), strings.Count(wantReplies, "\n"))
		}
	})
}

// A complete line followed by half of the next is admitted at once: the
// Wrapper never holds a row back waiting for more input.
func TestWrapperFlushesBeforeBlocking(t *testing.T) {
	got := make(chan []string, 4)
	s := NewPushServer(func(streams []string, rows [][]tuple.Value, _ func(int, error)) {
		got <- append([]string(nil), streams...)
	})
	s.Register("s", schema)
	server, client := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		s.serve(server)
	}()
	go func() { _, _ = client.Write([]byte("s,MSFT,50,1,true\ns,IBM,6")) }()
	select {
	case streams := <-got:
		if len(streams) != 1 {
			t.Fatalf("first batch carried %d rows, want 1", len(streams))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first row still held after its line was complete")
	}
}

// Lines longer than the read buffer are reassembled up to maxLine; a
// longer one ends the connection, as bufio.Scanner's limit did.
func TestWrapperLongLines(t *testing.T) {
	var m memSink
	s := NewPushServer(m.batch)
	s.Register("s", schema)
	long := strings.Repeat("y", 200*1024)
	conn := &shortConn{in: []byte("s," + long + ",1,2,true\n" + "s," + strings.Repeat("z", maxLine) + ",1,2,true\ns,after,1,2,true\n")}
	s.serve(conn)
	if m.count() != 1 || m.rows[0][0].S != long {
		t.Fatalf("admitted %d rows, want the 200 KiB one only", m.count())
	}
}

// wideSchema and wideLines are wide-passthrough's stream: 8 columns,
// two of them strings.
var wideSchema = tuple.NewSchema(
	tuple.Column{Name: "id", Kind: tuple.KindInt}, tuple.Column{Name: "n0", Kind: tuple.KindInt},
	tuple.Column{Name: "n1", Kind: tuple.KindInt}, tuple.Column{Name: "s0", Kind: tuple.KindString},
	tuple.Column{Name: "s1", Kind: tuple.KindString}, tuple.Column{Name: "v0", Kind: tuple.KindFloat},
	tuple.Column{Name: "v1", Kind: tuple.KindFloat}, tuple.Column{Name: "v2", Kind: tuple.KindFloat},
)

func wideLines(from, n int) []byte {
	var in []byte
	for i := from; i < from+n; i++ {
		in = fmt.Appendf(in, "ticks,%d,%d,%d,src%d,host-%d,%d.125,%d.5,%d.75\n", i, i*7919%1000000, i%1000, i%32, i%5000, i%100, i%1000, i%1000)
	}
	return in
}

// A 256-line wide-passthrough-shaped read costs at most one allocation
// per line (the line's string) plus a per-connection constant, and
// every further read on the connection costs only its lines.
func TestWrapperReadAllocs(t *testing.T) {
	const lines, reads = 256, 8
	one, in := wideLines(0, lines), wideLines(0, lines*reads)
	s := NewPushServer(func([]string, [][]tuple.Value, func(int, error)) {})
	s.Register("ticks", wideSchema)
	first := testing.AllocsPerRun(20, func() { s.serve(&shortConn{in: one}) })
	all := testing.AllocsPerRun(20, func() { s.serve(&shortConn{in: in}) })
	if s.Errs() != 0 || s.Rows() != 21*lines*(reads+1) {
		t.Fatalf("rows=%d errs=%d", s.Rows(), s.Errs())
	}
	t.Logf("%.0f allocations for the first %d-line read, %.0f for all %d", first, lines, all, lines*reads)
	if first > lines+32 {
		t.Fatalf("%.0f allocations for a %d-line read, want <= %d", first, lines, lines+32)
	}
	if more := all - first; more > (reads-1)*lines+8 {
		t.Fatalf("%.0f allocations for %d more lines on the same connection", more, (reads-1)*lines)
	}
}

// BenchmarkWrapperRead is the Wrapper's per-row cost from bytes read to
// the sink: line split, parse and batching, with a sink that keeps
// nothing.
func BenchmarkWrapperRead(b *testing.B) {
	const lines = 4096
	in := wideLines(0, lines)
	s := NewPushServer(func([]string, [][]tuple.Value, func(int, error)) {})
	s.Register("ticks", wideSchema)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.serve(&shortConn{in: in})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/row")
}
