package ingress

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"telegraphcq/internal/tuple"
)

var schema = tuple.NewSchema(
	tuple.Column{Source: "s", Name: "sym", Kind: tuple.KindString},
	tuple.Column{Source: "s", Name: "price", Kind: tuple.KindFloat},
	tuple.Column{Source: "s", Name: "qty", Kind: tuple.KindInt},
	tuple.Column{Source: "s", Name: "hot", Kind: tuple.KindBool},
)

type memSink struct {
	mu   sync.Mutex
	rows []([]tuple.Value)
}

func (m *memSink) sink(stream string, vals []tuple.Value) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = append(m.rows, vals)
	return nil
}

// batch is the sink as a BatchSink. It copies each row: the Wrapper
// reuses its arena for the next read.
func (m *memSink) batch(streams []string, rows [][]tuple.Value, _ func(int, error)) {
	for i, vals := range rows {
		_ = m.sink(streams[i], append([]tuple.Value(nil), vals...))
	}
}

func (m *memSink) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows)
}

func TestParseRow(t *testing.T) {
	vals, err := ParseRow(schema, []string{"MSFT", " 50.5", "100", "true"})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].S != "MSFT" || vals[1].F != 50.5 || vals[2].I != 100 || !vals[3].B {
		t.Fatalf("vals: %v", vals)
	}
	if _, err := ParseRow(schema, []string{"MSFT"}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := ParseRow(schema, []string{"M", "x", "1", "true"}); err == nil {
		t.Fatal("bad float accepted")
	}
	if _, err := ParseRow(schema, []string{"M", "1", "x", "true"}); err == nil {
		t.Fatal("bad int accepted")
	}
	if _, err := ParseRow(schema, []string{"M", "1", "1", "maybe"}); err == nil {
		t.Fatal("bad bool accepted")
	}
}

func TestParseRowNull(t *testing.T) {
	// NULL must be accepted in every column position, whatever the kind.
	full := tuple.NewSchema(
		tuple.Column{Source: "s", Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: "s", Name: "price", Kind: tuple.KindFloat},
		tuple.Column{Source: "s", Name: "qty", Kind: tuple.KindInt},
		tuple.Column{Source: "s", Name: "hot", Kind: tuple.KindBool},
		tuple.Column{Source: "s", Name: "at", Kind: tuple.KindTime},
	)
	cases := []struct {
		name   string
		fields []string
		nulls  []int // column indexes expected NULL
	}{
		{"string null", []string{"NULL", "1.5", "2", "true", "3"}, []int{0}},
		{"float null", []string{"M", "NULL", "2", "true", "3"}, []int{1}},
		{"int null", []string{"M", "1.5", "NULL", "true", "3"}, []int{2}},
		{"bool null", []string{"M", "1.5", "2", "NULL", "3"}, []int{3}},
		{"time null", []string{"M", "1.5", "2", "true", "NULL"}, []int{4}},
		{"all null", []string{"NULL", "NULL", "NULL", "NULL", "NULL"}, []int{0, 1, 2, 3, 4}},
		{"padded null", []string{"M", " NULL ", "2", "true", "3"}, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals, err := ParseRow(full, tc.fields)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]bool{}
			for _, i := range tc.nulls {
				want[i] = true
			}
			for i, v := range vals {
				if got := v.K == tuple.KindNull; got != want[i] {
					t.Fatalf("column %d: null=%v, want %v (vals %v)", i, got, want[i], vals)
				}
			}
		})
	}
	// Lower-case "null" is data, not NULL: it must still fail for an int.
	if _, err := ParseRow(full, []string{"M", "1.5", "null", "true", "3"}); err == nil {
		t.Fatal(`lower-case "null" accepted as int`)
	}
}

func TestCSVReader(t *testing.T) {
	input := `# header comment
MSFT,50,1,true

IBM,60,2,false
`
	var m memSink
	r := &CSVReader{Stream: "s", Schema: schema}
	n, err := r.Run(strings.NewReader(input), m.sink)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if m.rows[1][0].S != "IBM" {
		t.Fatalf("rows: %v", m.rows)
	}
}

func TestCSVReaderError(t *testing.T) {
	var m memSink
	r := &CSVReader{Stream: "s", Schema: schema}
	if _, err := r.Run(strings.NewReader("bad,row\n"), m.sink); err == nil {
		t.Fatal("malformed row accepted")
	}
}

func TestPullSource(t *testing.T) {
	i := 0
	src := &PullSource{
		Stream: "s",
		Next: func() ([]tuple.Value, error) {
			i++
			if i > 5 {
				return nil, io.EOF
			}
			return []tuple.Value{tuple.String("A"), tuple.Float(1), tuple.Int(1), tuple.Bool(false)}, nil
		},
	}
	var m memSink
	n, err := src.Run(m.sink)
	if err != nil || n != 5 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestPullSourceStop(t *testing.T) {
	src := &PullSource{
		Stream:   "s",
		Interval: time.Millisecond,
		Next: func() ([]tuple.Value, error) {
			return []tuple.Value{tuple.String("A"), tuple.Float(1), tuple.Int(1), tuple.Bool(false)}, nil
		},
	}
	var m memSink
	done := make(chan int64)
	go func() {
		n, _ := src.Run(m.sink)
		done <- n
	}()
	time.Sleep(20 * time.Millisecond)
	src.Stop()
	n := <-done
	if n == 0 {
		t.Fatal("nothing delivered before stop")
	}
}

func TestGeneratorCountAndLoss(t *testing.T) {
	mk := func(i int64) []tuple.Value {
		return []tuple.Value{tuple.String("A"), tuple.Float(float64(i)), tuple.Int(i), tuple.Bool(false)}
	}
	var m memSink
	g := &Generator{Stream: "s", Make: mk, Count: 1000, DropProb: 0.3, Seed: 4}
	n, err := g.Run(m.sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(m.count()) {
		t.Fatalf("returned %d, sank %d", n, m.count())
	}
	if n < 550 || n > 850 {
		t.Fatalf("loss off: delivered %d of 1000 at p=0.3", n)
	}
	// Determinism.
	var m2 memSink
	g2 := &Generator{Stream: "s", Make: mk, Count: 1000, DropProb: 0.3, Seed: 4}
	n2, _ := g2.Run(m2.sink)
	if n != n2 {
		t.Fatalf("non-deterministic: %d vs %d", n, n2)
	}
}

func TestGeneratorRatePacing(t *testing.T) {
	mk := func(i int64) []tuple.Value { return nil }
	var got []time.Time
	sink := func(string, []tuple.Value) error {
		got = append(got, time.Now())
		return nil
	}
	g := &Generator{Stream: "s", Make: mk, Count: 10, Rate: 1000, Burst: 1}
	start := time.Now()
	_, _ = g.Run(sink)
	if time.Since(start) < 8*time.Millisecond {
		t.Fatalf("10 rows at 1000/s finished in %v", time.Since(start))
	}
}

func TestSensorProxyRateControl(t *testing.T) {
	read := func(sensor int, i int64) []tuple.Value {
		return []tuple.Value{tuple.String(fmt.Sprint(sensor)), tuple.Float(1), tuple.Int(i), tuple.Bool(false)}
	}
	p := NewSensorProxy("s", 4, 2000, read)
	var m memSink
	go func() { _ = p.Run(m.sink) }()
	time.Sleep(30 * time.Millisecond)
	fast := p.Samples()
	p.SetSampleRate(100) // queries lowered acquisition
	time.Sleep(30 * time.Millisecond)
	slowDelta := p.Samples() - fast
	p.Stop()
	if fast == 0 {
		t.Fatal("no samples at high rate")
	}
	if slowDelta >= fast {
		t.Fatalf("rate control ineffective: %d then %d", fast, slowDelta)
	}
	if p.SampleRate() != 100 {
		t.Fatalf("rate = %d", p.SampleRate())
	}
}

func TestPushServerEndToEnd(t *testing.T) {
	var m memSink
	s := NewPushServer(m.batch)
	s.Register("s", schema)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(conn, "s,MSFT,50,1,true")
	fmt.Fprintln(conn, "unknown,1")      // unknown stream
	fmt.Fprintln(conn, "s,IBM,x,1,true") // bad value
	fmt.Fprintln(conn, "garbage")        // no comma
	fmt.Fprintln(conn, "s,IBM,60,2,false")
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for (s.Rows() < 2 || s.Errs() < 3) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Rows() != 2 || s.Errs() != 3 {
		t.Fatalf("rows=%d errs=%d", s.Rows(), s.Errs())
	}
}

func TestPushClient(t *testing.T) {
	// A fake remote source the wrapper connects out to.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fmt.Fprintln(conn, "MSFT,50,1,true")
		fmt.Fprintln(conn, "IBM,60,2,false")
		conn.Close()
	}()
	var m memSink
	c := &PushClient{Stream: "s", Schema: schema}
	n, err := c.Run(ln.Addr().String(), m.sink)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// A server that accepts and then goes silent must not hang the client
// forever: with a ReadTimeout set, Run returns a timeout error the
// Supervisor can act on, and rows delivered before the stall survive.
func TestPushClientReadDeadlineOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintln(conn, "MSFT,50,1,true")
		<-hold // stall: never send another byte, never close
	}()
	defer close(hold)

	var m memSink
	c := &PushClient{
		Stream: "s", Schema: schema,
		Opts: ClientOptions{
			DialTimeout:  time.Second,
			ReadTimeout:  150 * time.Millisecond,
			WriteTimeout: time.Second,
		},
	}
	start := time.Now()
	n, err := c.Run(ln.Addr().String(), m.sink)
	if n != 1 {
		t.Fatalf("rows before stall = %d, want 1", n)
	}
	if err == nil {
		t.Fatal("stalled server produced no error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// The per-line deadline must not kill a slow-but-alive feed: lines
// arriving within the timeout keep resetting it.
func TestPushClientDeadlineSlidesPerLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for i := 0; i < 4; i++ {
			fmt.Fprintln(conn, "MSFT,50,1,true")
			time.Sleep(60 * time.Millisecond) // under the 250ms deadline
		}
		conn.Close()
	}()
	var m memSink
	c := &PushClient{
		Stream: "s", Schema: schema,
		Opts: ClientOptions{ReadTimeout: 250 * time.Millisecond},
	}
	n, err := c.Run(ln.Addr().String(), m.sink)
	if err != nil || n != 4 {
		t.Fatalf("n=%d err=%v (deadline fired on a live feed?)", n, err)
	}
}
