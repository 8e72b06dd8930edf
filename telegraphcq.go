// Package telegraphcq is a from-scratch Go implementation of
// TelegraphCQ (Chandrasekaran et al., 2003): a shared, continuously
// adaptive engine for continuous queries over unbounded data streams.
//
// The engine routes tuples with Eddies (per-tuple adaptive routing),
// stores join state in SteMs (state modules shared across queries),
// evaluates all registered selections at once with CACQ grouped filters,
// supports the paper's for-loop window construct (snapshot, landmark,
// sliding/hopping, backward windows), archives streams to disk through a
// log-structured store and buffer pool, and scales out with Flux
// (load-balancing, fault-tolerant exchange) across worker processes
// (tcqd -role=coordinator|worker).
//
// Quick start:
//
//	db := telegraphcq.New(telegraphcq.Options{})
//	defer db.Close()
//	db.MustExec(`CREATE STREAM quotes (sym string, price float)`)
//	q, _ := db.Submit(`SELECT sym, price FROM quotes WHERE price > 100`)
//	go func() {
//	    for {
//	        row, ok := q.Next()
//	        if !ok { return }
//	        fmt.Println(row)
//	    }
//	}()
//	db.Push("quotes", telegraphcq.String("MSFT"), telegraphcq.Float(130))
//
// See examples/ for complete programs and DESIGN.md for the paper ↔
// module map.
package telegraphcq

import (
	"telegraphcq/internal/core"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/server"
	"telegraphcq/internal/storage"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// System is an embedded TelegraphCQ instance (single process, many
// Execution Objects). Create one with New.
type System = core.System

// Query is a standing continuous query handle returned by Submit.
type Query = core.Query

// Options configures a System.
type Options = core.Options

// ExecutorOptions tunes query-class placement and the adapting-adaptivity
// knobs (batching, operator fixing).
type ExecutorOptions = executor.Options

// Tuple is a result row.
type Tuple = tuple.Tuple

// Value is one typed cell of a row.
type Value = tuple.Value

// WindowSpec is a programmatic for-loop window (the SQL FOR construct
// parsed into code form); used with ScanHistory.
type WindowSpec = window.Spec

// Class-mode constants for ExecutorOptions.Mode.
const (
	ClassByFootprint = executor.ClassByFootprint
	ClassSingle      = executor.ClassSingle
	ClassPerQuery    = executor.ClassPerQuery
)

// Buffer pool replacement policies for Options.Replacement.
const (
	LRU   = storage.LRU
	Clock = storage.Clock
)

// New creates an embedded system.
func New(opts Options) *System { return core.NewSystem(opts) }

// NewServer creates a network daemon speaking the TelegraphCQ line
// protocol on a FrontEnd port (queries) and a Wrapper port (data).
func NewServer(opts ExecutorOptions) *server.Server { return server.New(opts) }

// Dial connects a client to a TelegraphCQ daemon's FrontEnd port.
func Dial(addr string) (*server.Client, error) { return server.Dial(addr) }

// DialPush connects a data producer to a daemon's Wrapper port.
func DialPush(addr string) (*server.PushConn, error) { return server.DialPush(addr) }

// Int builds an integer value.
func Int(i int64) Value { return tuple.Int(i) }

// Float builds a floating-point value.
func Float(f float64) Value { return tuple.Float(f) }

// String builds a string value.
func String(s string) Value { return tuple.String(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return tuple.Bool(b) }

// Null builds the SQL NULL value.
func Null() Value { return tuple.Null() }

// Backward builds a backward-moving window spec for historical browsing
// with System.ScanHistory (§4.1.1: "windows that move backwards starting
// from the present time").
func Backward(stream string, width, hop, iterations int64) *WindowSpec {
	return window.Backward(stream, width, hop, iterations)
}

// Sliding builds a forward-hopping window spec for ScanHistory replays.
func Sliding(stream string, width, hop, iterations int64) *WindowSpec {
	return window.Sliding(stream, width, hop, iterations)
}
