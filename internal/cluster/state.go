package cluster

import (
	"encoding/binary"
	"math"
	"sort"
)

// The movable-state core of Flux. Shah et al.'s central observation is
// that load balancing and fault tolerance are the *same* mechanism:
// both move a bucket's partitioned operator state between machines
// while the dataflow runs. This file is that mechanism's data plane:
// the state unit (BucketState), its fold and merge operations, a
// deterministic key→bucket partitioner, and a compact wire codec so
// state can cross a process boundary for failover catch-up and online
// handoff.

// GroupState is the per-group accumulator of the partitioned consumer
// operator (a windowed grouped aggregate: count and sum).
type GroupState struct {
	Key   string
	Count int64
	Sum   float64
}

// BucketState is the movable unit of operator state: the per-group
// accumulators of one partition bucket. It is not safe for concurrent
// use; a Worker serializes access under its mutex.
type BucketState map[string]*GroupState

// Fold accumulates one (key, value) observation.
func (b BucketState) Fold(key string, val float64) {
	g := b[key]
	if g == nil {
		g = &GroupState{Key: key}
		b[key] = g
	}
	g.Count++
	g.Sum += val
}

// Merge folds o's groups into b (used when collecting partial results
// across buckets or machines).
func (b BucketState) Merge(o BucketState) {
	for k, g := range o {
		d := b[k]
		if d == nil {
			b[k] = &GroupState{Key: k, Count: g.Count, Sum: g.Sum}
		} else {
			d.Count += g.Count
			d.Sum += g.Sum
		}
	}
}

// Clone deep-copies the state (replica maintenance: the secondary must
// not alias the primary's accumulators).
func (b BucketState) Clone() BucketState {
	c := make(BucketState, len(b))
	for k, g := range b {
		cp := *g
		c[k] = &cp
	}
	return c
}

// Keys returns the group keys in sorted order (deterministic output
// paths: COLLECT replies, tests, state digests).
func (b BucketState) Keys() []string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BucketOf deterministically maps a group key to one of n buckets
// (FNV-1a). Router and workers must agree on it, so it is fixed here
// rather than configurable.
func BucketOf(key string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// AppendState appends the wire form of b to dst: group count (uvarint)
// then per group key (len-prefixed), count (varint), sum (float bits).
// Groups are written in sorted key order so equal states encode to
// equal bytes — state digests and test assertions can compare buffers
// directly.
func AppendState(dst []byte, b BucketState) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	for _, k := range b.Keys() {
		g := b[k]
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendVarint(dst, g.Count)
		dst = binary.AppendUvarint(dst, math.Float64bits(g.Sum))
	}
	return dst
}

// DecodeState reads one encoded BucketState from buf, returning it and
// the remaining bytes.
func DecodeState(buf []byte) (BucketState, []byte, error) {
	d := &decoder{buf: buf}
	st := d.state()
	if d.err != nil {
		return nil, nil, d.err
	}
	return st, d.buf, nil
}

// state decodes AppendState's wire form. A group is at least three
// bytes: an empty key's length, a one-byte count and a one-byte sum.
func (d *decoder) state() BucketState {
	n := d.count(3)
	if d.err != nil {
		return nil
	}
	b := make(BucketState, n)
	for i := uint64(0); i < n; i++ {
		key := string(d.bytes(d.uvarint()))
		cnt := d.varint()
		sum := d.uvarint()
		if d.err != nil {
			return nil
		}
		b[key] = &GroupState{Key: key, Count: cnt, Sum: math.Float64frombits(sum)}
	}
	return b
}
