// Package core assembles the complete TelegraphCQ system: catalog,
// planner, shared adaptive executor, ingress stamping, disk archiving of
// streams, and historical access. It is the embedded-engine counterpart
// of the network server in internal/server; the public telegraphcq
// package wraps it.
package core

import (
	"fmt"
	"sync"
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/egress"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/plan"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/storage"
	"telegraphcq/internal/telemetry"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Options configures a System.
type Options struct {
	// Executor options (EO class mode, routing policy, knobs).
	Executor executor.Options
	// DataDir enables disk archiving of streams declared ARCHIVED.
	DataDir string
	// PoolFrames sizes the buffer pool shared by stream archives.
	PoolFrames int
	// Replacement selects the pool's eviction policy.
	Replacement storage.Replacement
}

// System is an embedded TelegraphCQ instance.
type System struct {
	cat  *catalog.Catalog
	exec *executor.Executor
	opts Options

	mu       sync.Mutex
	pool     *storage.Pool
	archives map[string]*storage.Archive
	closed   bool
}

// NewSystem builds an empty system.
func NewSystem(opts Options) *System {
	cat := catalog.New()
	s := &System{
		cat:      cat,
		exec:     executor.New(cat, opts.Executor),
		opts:     opts,
		archives: map[string]*storage.Archive{},
	}
	if opts.DataDir != "" {
		frames := opts.PoolFrames
		if frames <= 0 {
			frames = 256
		}
		s.pool = storage.NewPool(frames, opts.Replacement)
		pool := s.pool
		s.exec.Metrics().Register(func(emit telemetry.Emit) {
			ps := pool.Stats()
			c := func(name, help string, v int64) {
				emit(telemetry.Sample{Name: name, Help: help, Kind: telemetry.KindCounter, Value: float64(v)})
			}
			c("tcq_pool_hits_total", "buffer pool page hits", ps.Hits)
			c("tcq_pool_misses_total", "buffer pool page misses", ps.Misses)
			c("tcq_pool_evictions_total", "buffer pool page evictions", ps.Evictions)
		})
	}
	return s
}

// Metrics exposes the system-wide telemetry registry.
func (s *System) Metrics() *telemetry.Registry { return s.exec.Metrics() }

// Catalog exposes metadata (schemas, sources).
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// Executor exposes the shared executor (stats, barriers).
func (s *System) Executor() *executor.Executor { return s.exec }

// Exec runs one DDL or INSERT statement.
func (s *System) Exec(stmt string) error {
	st, err := sql.Parse(stmt)
	if err != nil {
		return err
	}
	src, err := plan.ApplyDDL(s.cat, st)
	if err != nil {
		return err
	}
	switch st.(type) {
	case *sql.CreateStream:
		if src.Archived {
			return s.openArchive(src)
		}
		return nil
	case *sql.CreateTable, *sql.Insert, *sql.DropSource:
		return nil
	case *sql.Select:
		return fmt.Errorf("core: use Submit for queries")
	default:
		return fmt.Errorf("core: unsupported statement")
	}
}

// MustExec runs a DDL/INSERT statement and panics on error (setup code).
func (s *System) MustExec(stmt string) {
	if err := s.Exec(stmt); err != nil {
		panic(err)
	}
}

func (s *System) openArchive(src *catalog.Source) error {
	if s.pool == nil {
		return fmt.Errorf("core: stream %s is ARCHIVED but no DataDir configured", src.Name)
	}
	a, err := storage.NewArchive(src.Name, src.Schema, s.pool, storage.ArchiveConfig{Dir: s.opts.DataDir})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.archives[src.Name] = a
	s.mu.Unlock()
	return nil
}

// Query is a standing continuous query handle. Historical (backward
// window) queries complete immediately with a finite result set.
type Query struct {
	ID  int
	sub *egress.Subscription
	sys *System
	// static holds the finished result of a historical query.
	static []*tuple.Tuple
	idx    int
}

// Next blocks for the next result row (ok=false once cancelled, drained,
// or — for historical queries — exhausted).
func (q *Query) Next() (*tuple.Tuple, bool) {
	if q.sub == nil {
		return q.TryNext()
	}
	return q.sub.Next()
}

// TryNext polls for a result row.
func (q *Query) TryNext() (*tuple.Tuple, bool) {
	if q.sub == nil {
		if q.idx >= len(q.static) {
			return nil, false
		}
		t := q.static[q.idx]
		q.idx++
		return t, true
	}
	return q.sub.TryNext()
}

// Dropped counts rows shed because the consumer fell behind.
func (q *Query) Dropped() int64 {
	if q.sub == nil {
		return 0
	}
	return q.sub.Dropped()
}

// Cancel removes the standing query (a no-op for completed historical
// queries).
func (q *Query) Cancel() error {
	if q.sub == nil {
		q.static = nil
		return nil
	}
	return q.sys.exec.Cancel(q.ID)
}

// Submit registers a continuous query and returns its handle. A SELECT
// whose for-loop window moves backward is a historical browsing query
// (§4.1.1): it runs against the stream's archive and completes
// immediately.
func (s *System) Submit(query string) (*Query, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("core: Submit expects a SELECT")
	}
	if sel.Window != nil {
		if kind, _, _ := sel.Window.Classify(); kind == window.KindBackward {
			return s.submitHistorical(sel)
		}
	}
	id, sub, err := s.exec.Submit(sel)
	if err != nil {
		return nil, err
	}
	return &Query{ID: id, sub: sub, sys: s}, nil
}

// Push delivers one tuple into a stream: it is stamped with its logical
// sequence number, archived if the stream is ARCHIVED, and routed to
// every interested Execution Object.
func (s *System) Push(stream string, vals ...tuple.Value) error {
	seq, err := s.exec.Push(stream, vals)
	if err != nil {
		return err
	}
	return s.appendArchive(stream, tuple.Timestamp{Seq: seq}, vals)
}

// PushStamped is Push with a caller-controlled wall clock, the seam
// deterministic harnesses use to drive physical-time windows
// reproducibly. A zero wall admits the tuple untimestamped (no physical
// coordinate: it belongs to no physical window).
func (s *System) PushStamped(stream string, wall time.Time, vals ...tuple.Value) error {
	seq, err := s.exec.PushStamped(stream, wall, vals)
	if err != nil {
		return err
	}
	return s.appendArchive(stream, tuple.Timestamp{Seq: seq, Wall: wall}, vals)
}

// PushAt is Push with a source-assigned logical timestamp (the paper's
// trading-day example stamps 8 symbols with the same day). Timestamps
// may repeat but must not regress.
func (s *System) PushAt(stream string, seq int64, vals ...tuple.Value) error {
	if err := s.exec.PushAt(stream, seq, vals); err != nil {
		return err
	}
	return s.appendArchive(stream, tuple.Timestamp{Seq: seq}, vals)
}

// appendArchive appends a pushed tuple to its stream's archive, if it has one.
func (s *System) appendArchive(stream string, ts tuple.Timestamp, vals []tuple.Value) error {
	s.mu.Lock()
	a := s.archives[stream]
	s.mu.Unlock()
	if a == nil {
		return nil
	}
	src, _ := s.cat.Lookup(stream)
	t := tuple.New(src.Schema, vals...)
	t.TS = ts
	return a.Append(t)
}

// Barrier waits until all pushed data has been fully processed.
func (s *System) Barrier() error { return s.exec.Barrier() }

// Archive exposes a stream's disk archive (nil if not archived).
func (s *System) Archive(stream string) *storage.Archive {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.archives[stream]
}

// ScanHistory runs fn over each window instance of a (possibly
// backward-moving) spec against the stream's archive — the browsing
// modality of §4.1.1. st binds ST; pass the stream's current sequence
// for "starting from the present time".
func (s *System) ScanHistory(stream string, spec *window.Spec, st int64,
	fn func(inst window.Instance, rows []*tuple.Tuple) bool) error {
	a := s.Archive(stream)
	if a == nil {
		return fmt.Errorf("core: stream %s is not archived", stream)
	}
	return a.ScanWindow(spec, stream, st, fn)
}

// CurSeq returns a stream's latest sequence number.
func (s *System) CurSeq(stream string) int64 {
	src, err := s.cat.Lookup(stream)
	if err != nil {
		return 0
	}
	return src.CurSeq()
}

// Close shuts the system down.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	archives := s.archives
	s.archives = map[string]*storage.Archive{}
	s.mu.Unlock()
	s.exec.Close()
	for _, a := range archives {
		_ = a.Close()
	}
}
