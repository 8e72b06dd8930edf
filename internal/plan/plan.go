// Package plan binds parsed SELECT statements to the catalog and lowers
// them into adaptive plans: a cacq.Query registration (grouped-filter
// factors, SteM join factors, window spec, aggregates) plus the
// side-channel work the executor must do — feeding aliased streams,
// loading static tables into SteMs, and post-processing (DISTINCT,
// ORDER BY, LIMIT). This is the "parses, analyzes, and optimizes it into
// an adaptive plan" step of §4.2.1.
package plan

import (
	"fmt"

	"telegraphcq/internal/cacq"
	"telegraphcq/internal/catalog"
	"telegraphcq/internal/expr"
	"telegraphcq/internal/operator"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
	"telegraphcq/internal/window"
)

// Feed tells the executor to deliver tuples of Stream into the dataflow
// under the name As (aliases make self-joins possible: the band-join
// example reads ClosingStockPrices as both c1 and c2).
type Feed struct {
	Stream string
	As     string
}

// TableLoad tells the executor to load a static table's rows as base
// tuples under the given alias before the query starts.
type TableLoad struct {
	Table string
	As    string
}

// Planned is an executable continuous query.
type Planned struct {
	CQ       *cacq.Query
	Feeds    []Feed
	Tables   []TableLoad
	Distinct bool
	OrderBy  []operator.SortKey
	Limit    int64
	// Partition is the shard-placement contract (see partition.go).
	Partition *Partition
}

// Planner lowers ASTs against a catalog.
type Planner struct {
	cat *catalog.Catalog
}

// New builds a planner.
func New(cat *catalog.Catalog) *Planner { return &Planner{cat: cat} }

// PlanSelect lowers one SELECT into a Planned query with the given id.
func (p *Planner) PlanSelect(s *sql.Select, id int) (*Planned, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("plan: no FROM sources")
	}
	// Resolve FROM items; map alias → catalog source.
	type fromSrc struct {
		item   sql.FromItem
		source *catalog.Source
		schema *tuple.Schema // renamed to the alias
	}
	var froms []fromSrc
	names := map[string]bool{}
	for _, f := range s.From {
		src, err := p.cat.Lookup(f.Source)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		name := f.Name()
		if names[name] {
			return nil, fmt.Errorf("plan: duplicate source name %q (alias needed)", name)
		}
		names[name] = true
		sch := src.Schema
		if name != f.Source {
			sch = sch.Rename(name)
		}
		froms = append(froms, fromSrc{item: f, source: src, schema: sch})
	}

	// qualify rewrites an unqualified column to its unique source.
	qualify := func(c *expr.ColumnRef) error {
		if c.Source != "" {
			if !names[c.Source] {
				return fmt.Errorf("plan: unknown source %q in %s", c.Source, c)
			}
			for _, f := range froms {
				if f.item.Name() == c.Source {
					if _, err := f.schema.ColumnIndex(c.Source, c.Name); err != nil {
						return fmt.Errorf("plan: %w", err)
					}
				}
			}
			return nil
		}
		found := ""
		for _, f := range froms {
			if _, err := f.schema.ColumnIndex(f.item.Name(), c.Name); err == nil {
				if found != "" {
					return fmt.Errorf("plan: column %q is ambiguous (%s, %s)", c.Name, found, f.item.Name())
				}
				found = f.item.Name()
			}
		}
		if found == "" {
			return fmt.Errorf("plan: unknown column %q", c.Name)
		}
		c.Source = found
		return nil
	}
	qualifyAll := func(e expr.Expr) error {
		for _, c := range expr.Columns(e, nil) {
			if c.Name == "*" {
				continue
			}
			if err := qualify(c); err != nil {
				return err
			}
		}
		return nil
	}

	if s.Where != nil {
		if err := qualifyAll(s.Where); err != nil {
			return nil, err
		}
	}
	for _, g := range s.GroupBy {
		if err := qualify(g); err != nil {
			return nil, err
		}
	}

	q := &cacq.Query{ID: id, Where: s.Where}
	for _, f := range froms {
		q.Sources = append(q.Sources, f.item.Name())
	}

	// SELECT list: aggregates vs scalars vs stars.
	var aggs []operator.AggSpec
	var selects []expr.Expr
	var selectNames []string
	for _, item := range s.Items {
		switch {
		case item.Agg != nil:
			if item.Agg.Arg != nil {
				if err := qualifyAll(item.Agg.Arg); err != nil {
					return nil, err
				}
			}
			aggs = append(aggs, *item.Agg)
		case item.Star:
			// "*" or "alias.*": expand to the matching schemas' columns.
			for _, f := range froms {
				if item.As != "" && f.item.Name() != item.As {
					continue
				}
				for _, col := range f.schema.Cols {
					selects = append(selects, expr.Col(col.Source, col.Name))
					selectNames = append(selectNames, col.Name)
				}
			}
			if item.As != "" && !names[item.As] {
				return nil, fmt.Errorf("plan: unknown source %q in %s.*", item.As, item.As)
			}
		default:
			if err := qualifyAll(item.Expr); err != nil {
				return nil, err
			}
			selects = append(selects, item.Expr)
			selectNames = append(selectNames, item.As)
		}
	}
	if len(aggs) > 0 {
		if len(selects) > 0 {
			// Scalars alongside aggregates must be grouping columns; the
			// WindowAgg output already carries the group columns.
			for _, e := range selects {
				c, ok := e.(*expr.ColumnRef)
				if !ok || !inGroupBy(c, s.GroupBy) {
					return nil, fmt.Errorf("plan: %s must appear in GROUP BY", e)
				}
			}
		}
		q.Aggs = aggs
		q.GroupBy = s.GroupBy
	} else {
		if len(s.GroupBy) > 0 {
			return nil, fmt.Errorf("plan: GROUP BY without aggregates")
		}
		q.Select = selects
		q.SelectNames = selectNames
	}

	// Window: validate WindowIs names against FROM names.
	if s.Window != nil {
		for _, d := range s.Window.Defs {
			if !names[d.Stream] {
				return nil, fmt.Errorf("plan: WindowIs over unknown source %q", d.Stream)
			}
		}
		if err := s.Window.Validate(); err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		// A backward window browses an archive's history and completes; it
		// is never a standing query (the embedded system serves it from the
		// archive before planning).
		if kind, _, _ := s.Window.Classify(); kind == window.KindBackward {
			return nil, fmt.Errorf("plan: backward windows are historical queries over an ARCHIVED stream's archive, not standing queries")
		}
		q.Window = s.Window
	}
	if len(aggs) > 0 && q.Window == nil {
		return nil, fmt.Errorf("plan: aggregates require a FOR(...) window over the stream")
	}

	out := &Planned{CQ: q, Distinct: s.Distinct, Limit: s.Limit}
	for _, k := range s.OrderBy {
		// ORDER BY runs on the *output* rows (after projection or
		// aggregation), whose columns carry the query's own names —
		// keep references unqualified so they resolve there.
		out.OrderBy = append(out.OrderBy, operator.SortKey{Expr: k.Expr, Desc: k.Desc})
	}
	for _, f := range froms {
		switch f.source.Kind {
		case catalog.KindStream:
			out.Feeds = append(out.Feeds, Feed{Stream: f.item.Source, As: f.item.Name()})
		case catalog.KindTable:
			out.Tables = append(out.Tables, TableLoad{Table: f.item.Source, As: f.item.Name()})
		}
	}
	out.Partition = inferPartition(q, out, func(alias, col string) (int, bool) {
		for _, f := range froms {
			if f.item.Name() != alias {
				continue
			}
			idx, err := f.schema.ColumnIndex(alias, col)
			if err != nil {
				return -1, false
			}
			return idx, true
		}
		return -1, false
	})
	return out, nil
}

func inGroupBy(c *expr.ColumnRef, groupBy []*expr.ColumnRef) bool {
	for _, g := range groupBy {
		if g.Name == c.Name && (g.Source == c.Source || g.Source == "" || c.Source == "") {
			return true
		}
	}
	return false
}
