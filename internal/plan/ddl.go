package plan

import (
	"time"

	"telegraphcq/internal/catalog"
	"telegraphcq/internal/fjord"
	"telegraphcq/internal/sql"
	"telegraphcq/internal/tuple"
)

// ApplyDDL applies a CREATE STREAM, CREATE TABLE, INSERT or DROP
// statement to the catalog — the one place both front ends (the
// embedded core.System and the network server) turn DDL into catalog
// calls. It returns the source a CREATE made (nil for INSERT and DROP)
// so the caller can attach what only it owns: an archive, a wrapper
// registration. Any other statement is left alone: (nil, nil).
func ApplyDDL(cat *catalog.Catalog, st sql.Statement) (*catalog.Source, error) {
	switch x := st.(type) {
	case *sql.CreateStream:
		src, err := cat.CreateStream(x.Name, x.Cols, x.Archived)
		if err != nil || x.With == nil {
			return src, err
		}
		// WITH (overflow = ..., rate = ..., timeout_ms = ...) — the
		// policy name was validated at parse time.
		pol, err := fjord.ParseOverflowPolicy(x.With.Overflow)
		if err != nil {
			return nil, err
		}
		src.SetQoS(fjord.QoS{
			Policy:       pol,
			SampleP:      x.With.SampleP,
			BlockTimeout: time.Duration(x.With.TimeoutMs) * time.Millisecond,
		})
		return src, nil
	case *sql.CreateTable:
		return cat.CreateTable(x.Name, x.Cols)
	case *sql.Insert:
		src, err := cat.Lookup(x.Table)
		if err != nil {
			return nil, err
		}
		for _, row := range x.Rows {
			if err := src.Insert(tuple.New(src.Schema, row...)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *sql.DropSource:
		return nil, cat.Drop(x.Name)
	}
	return nil, nil
}
