package cluster

import (
	"bytes"
	"testing"
)

func TestStateCodecRoundtrip(t *testing.T) {
	b := BucketState{}
	b.Fold("alpha", 1.5)
	b.Fold("alpha", 2.5)
	b.Fold("beta", -3)
	b.Fold("", 0) // empty key is a legal group

	enc := AppendState(nil, b)
	got, rest, err := DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if len(got) != len(b) {
		t.Fatalf("groups = %d, want %d", len(got), len(b))
	}
	for k, g := range b {
		d := got[k]
		if d == nil || d.Count != g.Count || d.Sum != g.Sum {
			t.Fatalf("group %q = %+v, want %+v", k, d, g)
		}
	}

	// Equal states encode to equal bytes (sorted-key determinism).
	c := b.Clone()
	if !bytes.Equal(AppendState(nil, c), enc) {
		t.Fatal("clone encodes differently")
	}

	// Empty state roundtrips.
	e, rest, err := DecodeState(AppendState(nil, BucketState{}))
	if err != nil || len(e) != 0 || len(rest) != 0 {
		t.Fatalf("empty roundtrip: %v %d %d", err, len(e), len(rest))
	}
}

func TestStateCodecTruncated(t *testing.T) {
	b := BucketState{}
	b.Fold("key", 42)
	enc := AppendState(nil, b)
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeState(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(enc))
		}
	}
}

func TestStateCloneIndependence(t *testing.T) {
	b := BucketState{}
	b.Fold("k", 1)
	c := b.Clone()
	b.Fold("k", 1)
	if c["k"].Count != 1 {
		t.Fatalf("clone aliased: count = %d", c["k"].Count)
	}
}

func TestStateMerge(t *testing.T) {
	a, b := BucketState{}, BucketState{}
	a.Fold("x", 1)
	a.Fold("y", 2)
	b.Fold("y", 3)
	b.Fold("z", 4)
	a.Merge(b)
	if a["x"].Count != 1 || a["y"].Count != 2 || a["y"].Sum != 5 || a["z"].Sum != 4 {
		t.Fatalf("merge wrong: %+v", a)
	}
	// Merge must copy, not alias, new groups.
	b["z"].Count = 99
	if a["z"].Count != 1 {
		t.Fatal("merge aliased a new group")
	}
}

func TestBucketOf(t *testing.T) {
	const n = 64
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := string(rune('a'+i%26)) + string(rune('0'+i%10))
		b := BucketOf(k, n)
		if b < 0 || b >= n {
			t.Fatalf("bucket %d out of range", b)
		}
		if b != BucketOf(k, n) {
			t.Fatal("BucketOf not deterministic")
		}
		seen[b] = true
	}
	if len(seen) < n/2 {
		t.Fatalf("poor spread: %d/%d buckets hit", len(seen), n)
	}
}
