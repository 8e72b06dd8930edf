package ingress

import (
	"strings"
	"testing"

	"telegraphcq/internal/tuple"
)

// FuzzParseRow feeds arbitrary wrapper lines, comma-split as the push
// server splits them, to ParseRow over a fixed int,string,float schema.
// It must never panic, and a row it accepts has the schema's arity and
// column kinds (or NULL).
func FuzzParseRow(f *testing.F) {
	schema := tuple.NewSchema(
		tuple.Column{Source: "s", Name: "id", Kind: tuple.KindInt},
		tuple.Column{Source: "s", Name: "sym", Kind: tuple.KindString},
		tuple.Column{Source: "s", Name: "price", Kind: tuple.KindFloat},
	)
	for _, seed := range []string{
		"1,MSFT,60.5",
		" 2 , IBM ,  -3e2 ",
		"NULL,NULL,NULL",
		"3,,0",
		"x,MSFT,1",
		"4,MSFT,NaN",
		"5,MSFT",
		"6,a,b,c",
		"",
		"9223372036854775808,s,1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		vals, err := ParseRow(schema, strings.Split(line, ","))
		if err != nil {
			return
		}
		if len(vals) != schema.Arity() {
			t.Fatalf("%q: %d values for %d columns", line, len(vals), schema.Arity())
		}
		for i, v := range vals {
			if v.K != tuple.KindNull && v.K != schema.Cols[i].Kind {
				t.Fatalf("%q: column %d parsed as kind %v, want %v", line, i, v.K, schema.Cols[i].Kind)
			}
		}
	})
}
