package sql

import (
	"telegraphcq/internal/expr"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// StreamWith holds the DDL options of "WITH (key = value, ...)":
// the stream's ingress overflow (QoS) policy.
type StreamWith struct {
	// Overflow names the policy: block, drop-newest, drop-oldest, sample.
	Overflow string
	// SampleP is the admit probability for overflow = 'sample'.
	SampleP float64
	// TimeoutMs bounds how long overflow = 'block' waits for space.
	TimeoutMs int64
}

// CreateStream is "CREATE STREAM name (col type, ...) [ARCHIVED]
// [WITH (overflow = ..., ...)]".
type CreateStream struct {
	Name     string
	Cols     []tuple.Column
	Archived bool
	With     *StreamWith
}

// CreateTable is "CREATE TABLE name (col type, ...)".
type CreateTable struct {
	Name string
	Cols []tuple.Column
}

// Insert is "INSERT INTO table VALUES (v, ...), (v, ...)".
type Insert struct {
	Table string
	Rows  [][]tuple.Value
}

// DropSource is "DROP STREAM name" / "DROP TABLE name".
type DropSource struct{ Name string }

// ShowStats is "SHOW STATS [LIKE 'prefix']": a point-in-time dump of the
// engine's telemetry registry (metric, labels, value). The continuous
// counterpart is a CQ over the tcq_* system streams.
type ShowStats struct{ Like string }

// SubscribeWith holds the options of "SUBSCRIBE ... WITH (...)": the
// subscriber-edge overflow (QoS) policy and cohort membership.
type SubscribeWith struct {
	// Overflow names the policy: block, drop-newest, drop-oldest, sample.
	Overflow string
	// SampleP is the admit probability for overflow = 'sample'.
	SampleP float64
	// TimeoutMs bounds how long overflow = 'block' waits for space.
	TimeoutMs int64
	// Cohort names a shared replay cursor over the query's spool.
	Cohort string
	// Queue overrides the subscriber's frame ring capacity.
	Queue int64
	// Replay forces catch-up from the spool base without a cohort.
	Replay bool
}

// Subscribe attaches a fan-out subscriber to a continuous query:
// "SUBSCRIBE <query-id> [WITH (...)]" joins a standing query;
// "SUBSCRIBE SELECT ... [WITH (...)]" submits the query first. Unlike a
// plain SELECT cursor (one push subscription per query), SUBSCRIBE
// cursors share one encode-once fan-out tree.
type Subscribe struct {
	Query int64   // target query id (the non-SELECT form)
	Sel   *Select // non-nil for the submitting form
	With  *SubscribeWith
}

// SelectItem is one entry of the SELECT list.
type SelectItem struct {
	Star bool
	// Agg is set for aggregate items (AVG(price)); Expr for scalars.
	Agg  *operator.AggSpec
	Expr expr.Expr
	As   string
}

// FromItem names one input with an optional alias.
type FromItem struct {
	Source string
	Alias  string
}

// Name returns the alias if present, else the source name.
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Source
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Expr expr.Expr
	Desc bool
}

// Select is a (continuous) query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem
	Where    expr.Expr
	GroupBy  []*expr.ColumnRef
	OrderBy  []OrderKey
	Limit    int64 // 0 = unlimited
	// Window is the parsed for-loop construct; nil for unwindowed CQs.
	Window *window.Spec
}

func (*CreateStream) stmt() {}
func (*CreateTable) stmt()  {}
func (*Insert) stmt()       {}
func (*DropSource) stmt()   {}
func (*ShowStats) stmt()    {}
func (*Select) stmt()       {}
func (*Subscribe) stmt()    {}
