// Package operator implements the pipelined, non-blocking dataflow
// modules of Figure 1 in the paper: selections (Filter), CACQ grouped
// filters, projections, windowed grouping/aggregation, duplicate
// elimination, SteM join modules and the Juggle online reorderer that
// serves ORDER BY. Modules consume and produce tuples through a uniform
// interface so an Eddy can route among them without knowing what they
// do (§2.1: "architecturally, these modules are indistinguishable").
package operator

import "telegraphcq/internal/tuple"

// Outcome tells the router what became of the tuple a module processed.
type Outcome uint8

const (
	// Pass: the module handled the tuple successfully; routing continues.
	Pass Outcome = iota
	// Drop: the tuple failed a predicate (or no query remains interested);
	// the router discards it.
	Drop
	// Consumed: the module retained the tuple (e.g. an aggregate absorbed
	// it); routing of this tuple ends but derived tuples may be emitted
	// now or at Flush.
	Consumed
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Consumed:
		return "consumed"
	default:
		return "?"
	}
}

// Emit delivers a tuple produced by a module back to the router (join
// matches, window results).
type Emit func(*tuple.Tuple)

// Module is the unit of dataflow composition.
type Module interface {
	// Name identifies the module in plans, stats, and experiments.
	Name() string
	// Interested reports whether the router should route t through this
	// module. The Eddy uses it to initialize each tuple's ready bitmap.
	Interested(t *tuple.Tuple) bool
	// Process handles one tuple, possibly emitting derived tuples.
	Process(t *tuple.Tuple, emit Emit) (Outcome, error)
}

// VecModule is implemented by modules that can process a whole
// same-schema batch column-at-a-time over a columnar view. ProcessVec
// must be externally indistinguishable from calling Process on each
// tuple of ts in order: keep[i]=false marks lane i dropped, and stats
// advance exactly as the per-tuple path would. Only modules that never
// emit or consume qualify. handled=false means the caller must
// replay the batch tuple-at-a-time through Process; an implementation
// may return false after partial work only if that work is idempotent
// under replay (grouped-filter lineage subtraction is — Subtract of the
// same failure set twice is a no-op) and leaves stats untouched.
type VecModule interface {
	Module
	ProcessVec(cb *tuple.ColBatch, ts []*tuple.Tuple, keep []bool) (handled bool)
}

// Flusher is implemented by modules holding window state that must be
// flushed when their input ends (end of stream = infinite punctuation).
type Flusher interface {
	Flush(emit Emit) error
}

// Stats are the per-module observations adaptive routing policies feed on.
type Stats struct {
	In       int64 // tuples routed in
	Out      int64 // tuples emitted
	Dropped  int64 // tuples dropped
	WorkNsec int64 // cumulative processing time, nanoseconds
}

// Selectivity estimates the fraction of input that survives; 1.0 until
// observations exist.
func (s Stats) Selectivity() float64 {
	if s.In == 0 {
		return 1
	}
	return 1 - float64(s.Dropped)/float64(s.In)
}

// CostPerTuple estimates nanoseconds of work per input tuple.
func (s Stats) CostPerTuple() float64 {
	if s.In == 0 {
		return 0
	}
	return float64(s.WorkNsec) / float64(s.In)
}

// StatsProvider is implemented by modules that expose observations.
type StatsProvider interface {
	ModuleStats() Stats
}
