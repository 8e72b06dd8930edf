// Package ingress implements the Wrapper process's data-ingress
// operators (§2.1, §4.2.3): pull sources polled by the wrapper,
// push-client sources the wrapper connects out to, a push-server port
// remote sources connect into, a CSV file reader, a controllable
// synthetic generator (rate, burstiness, loss — the paper's volatile
// network conditions), and a sensor proxy whose sample rate can be
// adjusted from the query side (the feedback loop of [MF02]).
package ingress

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/tuple"
)

// Sink receives parsed rows for a stream; the executor's Push is one.
type Sink func(stream string, vals []tuple.Value) error

// BatchSink admits one Wrapper read's rows in arrival order: rows[i]
// belongs to streams[i]. It hands each row it refuses to refuse and
// admits the rest; the executor's PushRows is one. The sink must not
// keep rows or their backing arrays: the Wrapper reuses them for its
// next read.
type BatchSink func(streams []string, rows [][]tuple.Value, refuse func(i int, err error))

// ParseRow converts CSV fields to values following a schema.
func ParseRow(schema *tuple.Schema, fields []string) ([]tuple.Value, error) {
	if len(fields) != schema.Arity() {
		return nil, fmt.Errorf("ingress: %d fields for %d columns", len(fields), schema.Arity())
	}
	vals := make([]tuple.Value, len(fields))
	for i, f := range fields {
		v, err := parseValue(&schema.Cols[i], f)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// appendRow is ParseRow over one line of sep-separated fields, with no
// field slice: it appends the row's values to dst. String values are
// substrings of line. On error dst comes back at its original length.
func appendRow(dst []tuple.Value, schema *tuple.Schema, line, sep string) ([]tuple.Value, error) {
	if n := strings.Count(line, sep) + 1; n != schema.Arity() {
		return dst, fmt.Errorf("ingress: %d fields for %d columns", n, schema.Arity())
	}
	base := len(dst)
	for i := range schema.Cols {
		f := line
		if j := strings.Index(line, sep); j >= 0 {
			f, line = line[:j], line[j+len(sep):]
		}
		v, err := parseValue(&schema.Cols[i], f)
		if err != nil {
			return dst[:base], err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseValue converts one CSV field to a value of col's kind.
func parseValue(col *tuple.Column, f string) (tuple.Value, error) {
	f = strings.TrimSpace(f)
	// NULL is a valid value for every column kind, not just strings —
	// sensors report missing readings as NULL in any position.
	if f == "NULL" {
		return tuple.Null(), nil
	}
	var err error
	switch col.Kind {
	case tuple.KindInt:
		var n int64
		if n, err = strconv.ParseInt(f, 10, 64); err == nil {
			return tuple.Int(n), nil
		}
	case tuple.KindFloat:
		var x float64
		if x, err = strconv.ParseFloat(f, 64); err == nil {
			return tuple.Float(x), nil
		}
	case tuple.KindBool:
		var b bool
		if b, err = strconv.ParseBool(f); err == nil {
			return tuple.Bool(b), nil
		}
	case tuple.KindTime:
		var ns int64
		if ns, err = strconv.ParseInt(f, 10, 64); err == nil {
			return tuple.Value{K: tuple.KindTime, I: ns}, nil
		}
	default:
		return tuple.String(f), nil
	}
	return tuple.Value{}, fmt.Errorf("ingress: column %s: %w", col.Name, err)
}

// ------------------------------------------------------------ CSVReader

// CSVReader streams rows from an io.Reader ("local file reader" wrapper).
type CSVReader struct {
	Stream string
	Schema *tuple.Schema
	Comma  string // default ","
}

// Run parses r to exhaustion, delivering every row to sink.
func (c *CSVReader) Run(r io.Reader, sink Sink) (int64, error) {
	sep := c.Comma
	if sep == "" {
		sep = ","
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var n int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		vals, err := appendRow(make([]tuple.Value, 0, c.Schema.Arity()), c.Schema, line, sep)
		if err != nil {
			return n, err
		}
		if err := sink(c.Stream, vals); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

// ------------------------------------------------------------ PullSource

// PullSource adapts a traditional pull iterator (a federated wrapper
// like TeSS): the wrapper polls Next at the configured interval, which
// may block on the remote — exactly the blocking the Fjords design keeps
// out of the executor by hosting it here, in the Wrapper process.
type PullSource struct {
	Stream   string
	Next     func() ([]tuple.Value, error) // io.EOF ends the source
	Interval time.Duration

	stopped atomic.Bool
}

// Run polls until EOF or Stop. Returns rows delivered.
func (p *PullSource) Run(sink Sink) (int64, error) {
	var n int64
	for !p.stopped.Load() {
		vals, err := p.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if vals != nil {
			if err := sink(p.Stream, vals); err != nil {
				return n, err
			}
			n++
		}
		if p.Interval > 0 {
			time.Sleep(p.Interval)
		}
	}
	return n, nil
}

// Stop ends the polling loop.
func (p *PullSource) Stop() { p.stopped.Store(true) }

// ------------------------------------------------------------ Generator

// Generator produces synthetic rows with controllable rate, burstiness,
// and loss — the "extremely high or bursty" arrival of §1.1. Make
// returns the i-th row.
type Generator struct {
	Stream string
	Make   func(i int64) []tuple.Value
	Count  int64 // rows to produce (0 = until Stop)
	// Rate is rows/second (0 = as fast as possible).
	Rate float64
	// Burst delivers rows in bursts of this size with pauses between
	// (1 = smooth).
	Burst int
	// DropProb drops a row with this probability (sensor loss).
	DropProb float64
	// Seed makes loss deterministic.
	Seed int64

	stopped atomic.Bool
}

// Run produces rows into sink; returns delivered (post-loss) count.
func (g *Generator) Run(sink Sink) (int64, error) {
	rng := rand.New(rand.NewSource(g.Seed + 1))
	burst := g.Burst
	if burst < 1 {
		burst = 1
	}
	var interval time.Duration
	if g.Rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(burst) / g.Rate)
	}
	var delivered int64
	for i := int64(0); (g.Count == 0 || i < g.Count) && !g.stopped.Load(); i++ {
		if g.DropProb > 0 && rng.Float64() < g.DropProb {
			continue
		}
		if err := sink(g.Stream, g.Make(i)); err != nil {
			return delivered, err
		}
		delivered++
		if interval > 0 && delivered%int64(burst) == 0 {
			time.Sleep(interval)
		}
	}
	return delivered, nil
}

// Stop ends generation.
func (g *Generator) Stop() { g.stopped.Store(true) }

// ----------------------------------------------------------- SensorProxy

// SensorProxy simulates a sensor-network ingress that accepts control
// messages back from the query processor: SetSampleRate adjusts how
// often the (simulated) sensors report, the feedback loop of [MF02]
// ("a sensor proxy may send control messages to adjust the sample rate
// of a sensor network based on the queries that are currently being
// processed").
type SensorProxy struct {
	Stream  string
	Sensors int
	// Read returns sensor s's current value at reading i.
	Read func(sensor int, i int64) []tuple.Value

	rate    atomic.Int64 // samples/sec across the network
	stopped atomic.Bool
	samples atomic.Int64
}

// NewSensorProxy builds a proxy at the given initial sample rate.
func NewSensorProxy(stream string, sensors int, ratePerSec int64, read func(int, int64) []tuple.Value) *SensorProxy {
	p := &SensorProxy{Stream: stream, Sensors: sensors, Read: read}
	p.rate.Store(ratePerSec)
	return p
}

// SetSampleRate is the control path: queries adjust acquisition.
func (p *SensorProxy) SetSampleRate(perSec int64) { p.rate.Store(perSec) }

// SampleRate returns the current rate.
func (p *SensorProxy) SampleRate() int64 { return p.rate.Load() }

// Samples returns total delivered samples.
func (p *SensorProxy) Samples() int64 { return p.samples.Load() }

// Run samples round-robin across sensors until Stop.
func (p *SensorProxy) Run(sink Sink) error {
	var i int64
	for !p.stopped.Load() {
		rate := p.rate.Load()
		if rate <= 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		sensor := int(i) % p.Sensors
		if err := sink(p.Stream, p.Read(sensor, i)); err != nil {
			return err
		}
		p.samples.Add(1)
		i++
		time.Sleep(time.Duration(int64(time.Second) / rate))
	}
	return nil
}

// Stop ends sampling.
func (p *SensorProxy) Stop() { p.stopped.Store(true) }

// ----------------------------------------------------------- PushServer

// PushServer is the Wrapper's well-known port: remote push sources
// connect and send "stream,field,field,..." lines (push-server sources,
// §4.2.3). Streams must be registered before data arrives. Each
// connection hands the sink the rows one read brought in as one batch,
// parsed into a reused value arena (DESIGN.md, "Wire in at the batch
// unit").
type PushServer struct {
	mu      sync.Mutex
	schemas map[string]*tuple.Schema
	ln      net.Listener
	sink    BatchSink
	wg      sync.WaitGroup
	conns   map[net.Conn]struct{}
	closed  bool
	rows    atomic.Int64
	errs    atomic.Int64
	batches atomic.Int64

	// Chaos, when set, injects faults into every connection: read stalls,
	// forced disconnects, and corrupted lines (nil-safe; see internal/chaos).
	Chaos *chaos.Injector
}

const (
	maxLine   = 1024 * 1024 // bytes in a line with its newline; a longer one ends the connection
	readBatch = 256         // rows a flush hands the sink at most: the executor's EO drain batch
)

// NewPushServer builds a push-server delivering into sink.
func NewPushServer(sink BatchSink) *PushServer {
	return &PushServer{
		schemas: map[string]*tuple.Schema{},
		conns:   map[net.Conn]struct{}{},
		sink:    sink,
	}
}

// Register makes a stream's schema known to the wrapper.
func (s *PushServer) Register(stream string, schema *tuple.Schema) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schemas[stream] = schema
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for tests);
// returns the bound address.
func (s *PushServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *PushServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serve(conn)
		}()
	}
}

func (s *PushServer) serve(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriter(conn)
	var (
		lineNo  int
		vals    []tuple.Value // the batch's value arena; rows are slices of it
		rows    = make([][]tuple.Value, 0, readBatch)
		streams = make([]string, 0, readBatch) // row i's stream
		lines   = make([]int, 0, readBatch)    // row i's line number, for the sink's refusals
		refused int
		long    []byte // a line longer than r's buffer, reassembled
	)
	// reject reports a bad line back to the source ("error <line#> <why>")
	// instead of dropping it silently; a source that never reads simply
	// accumulates the replies in its socket buffer.
	reject := func(n int, why string) {
		s.errs.Add(1)
		fmt.Fprintf(w, "error %d %s\n", n, strings.ReplaceAll(why, "\n", " "))
		_ = w.Flush()
	}
	refuse := func(i int, err error) {
		refused++
		reject(lines[i], err.Error())
	}
	flush := func() {
		if len(rows) == 0 {
			return
		}
		refused = 0
		s.sink(streams, rows, refuse)
		s.rows.Add(int64(len(rows) - refused))
		s.batches.Add(1)
		vals, rows, streams, lines = vals[:0], rows[:0], streams[:0], lines[:0]
	}
	// take parses one line into the batch, or says why it cannot.
	take := func(raw []byte) string {
		// The line's one allocation: every string value is a substring.
		line := strings.TrimSpace(string(raw))
		// Fault injection: corrupt the line before it is parsed — the
		// downstream path must reject it.
		if corrupted, ok := s.Chaos.CorruptLine(line); ok {
			line = corrupted
		}
		if line == "" {
			return ""
		}
		idx := strings.IndexByte(line, ',')
		if idx < 0 {
			return "expected stream,field,... line"
		}
		stream := line[:idx]
		s.mu.Lock()
		schema := s.schemas[stream]
		s.mu.Unlock()
		if schema == nil {
			return fmt.Sprintf("unknown stream %q", stream)
		}
		base := len(vals)
		var err error
		if vals, err = appendRow(vals, schema, line[idx+1:], ","); err != nil {
			return err.Error()
		}
		rows = append(rows, vals[base:len(vals):len(vals)])
		streams, lines = append(streams, stream), append(lines, lineNo)
		return ""
	}
	defer flush()
	for {
		raw, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull && len(long) <= maxLine {
				raw, err = r.ReadSlice('\n')
				long = append(long, raw...)
			}
			if len(long) > maxLine {
				return
			}
			raw = long
		}
		if len(raw) > 0 {
			lineNo++
			// Fault injection: stall the read loop or drop the connection
			// — the supervisor must absorb the disconnect. Rows already
			// read leave first.
			if d := s.Chaos.Stall(); d > 0 {
				flush()
				time.Sleep(d)
			}
			if s.Chaos.Disconnect() {
				return
			}
			// Rows before a bad line leave before its reply, so replies
			// keep line order.
			if why := take(raw); why != "" {
				flush()
				reject(lineNo, why)
			}
		}
		if err != nil {
			return
		}
		// Flush when reading on could block: no complete line is left.
		if buf, _ := r.Peek(r.Buffered()); len(rows) == readBatch || bytes.IndexByte(buf, '\n') < 0 {
			flush()
		}
	}
}

// Rows returns total delivered rows; Errs returns rejected lines.
func (s *PushServer) Rows() int64 { return s.rows.Load() }

// Errs returns the count of rejected input lines.
func (s *PushServer) Errs() int64 { return s.errs.Load() }

// Batches returns the count of batches handed to the sink; Rows over
// Batches is the rows one read carries.
func (s *PushServer) Batches() int64 { return s.batches.Load() }

// Close stops the listener, severs live source connections, and waits
// for their goroutines to finish. Severing matters: a remote source
// that never hangs up must not wedge a draining (or force-closing)
// server, so ingress shutdown cuts the wire instead of waiting for the
// other end's goodwill.
func (s *PushServer) Close() {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// ----------------------------------------------------------- PushClient

// ClientOptions bounds a PushClient's network waits. Zero values leave
// the corresponding wait unbounded, so the zero ClientOptions keeps the
// old behavior.
type ClientOptions struct {
	// DialTimeout bounds the initial connect.
	DialTimeout time.Duration
	// ReadTimeout bounds the silence between lines. A source that stalls
	// longer than this — a half-open connection, a wedged remote — makes
	// Run return a timeout error so the Supervisor can reconnect instead
	// of hanging forever on a dead socket.
	ReadTimeout time.Duration
	// WriteTimeout bounds any write back to the source (applied as the
	// connection's write deadline alongside each read).
	WriteTimeout time.Duration
}

// PushClient connects out to a data source that speaks the same line
// protocol (push-client sources: "connections can be initiated ... by
// the Wrapper"). It is built to live on an unreliable wire: a row that
// fails to parse is counted and skipped (one corrupt reading must not
// kill the feed), Opts deadlines turn silent stalls into errors, and
// Stop closes the live connection so a Supervisor can interrupt a
// blocked read.
type PushClient struct {
	Stream string
	Schema *tuple.Schema
	Opts   ClientOptions

	badRows atomic.Int64

	mu      sync.Mutex
	conn    net.Conn
	stopped bool
}

// BadRows counts lines skipped because they failed to parse.
func (c *PushClient) BadRows() int64 { return c.badRows.Load() }

// Stop closes the current connection (if any) and makes subsequent Run
// calls return immediately — the hook a Supervisor's stop channel uses.
func (c *PushClient) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Run connects to addr and forwards lines until the source closes or
// Stop is called. Unparseable rows are skipped, not fatal.
func (c *PushClient) Run(addr string, sink Sink) (int64, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return 0, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, c.Opts.DialTimeout)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		conn.Close()
		return 0, nil
	}
	c.conn = conn
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.conn == conn {
			c.conn = nil
		}
		c.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var n int64
	for {
		// Arm the deadlines per line, not per connection: a live feed may
		// run for days, but the gap between two lines is bounded.
		if c.Opts.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.Opts.ReadTimeout))
		}
		if c.Opts.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(c.Opts.WriteTimeout))
		}
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		vals, err := appendRow(make([]tuple.Value, 0, c.Schema.Arity()), c.Schema, line, ",")
		if err != nil {
			c.badRows.Add(1)
			continue
		}
		if err := sink(c.Stream, vals); err != nil {
			return n, err
		}
		n++
	}
	err = sc.Err()
	c.mu.Lock()
	stopped := c.stopped
	c.mu.Unlock()
	if stopped {
		// The error (if any) came from Stop closing the socket under us;
		// report a clean end so a supervisor does not reconnect.
		return n, nil
	}
	return n, err
}
