package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A count read off the wire sizes a pre-allocation, so a frame of a few
// bytes must not be able to ask for a large one: it is a truncated
// frame, rejected before anything is allocated.
func TestOversizedWireCountsFailFast(t *testing.T) {
	const limit = 1 << 20
	groups := binary.AppendUvarint(nil, 1<<40)         // past what make accepts as a map hint
	groups24 := binary.AppendUvarint(nil, 1<<24)       // a hint make honours: ~900 MB unbounded
	data := binary.AppendUvarint([]byte{7, 82}, 1<<24) // bucket 7, baseSeq 41, 2^24 entries
	pairs := binary.AppendUvarint(nil, 1<<24)          // mFloors / mAckBatch body
	collect := binary.AppendUvarint(nil, maxFrame)     // mCollect body
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"state groups", func() error { _, _, err := DecodeState(groups); return err }},
		{"state groups 2^24", func() error { _, _, err := DecodeState(groups24); return err }},
		{"data entries", func() error { d := &decoder{buf: data}; decodeData(d); return d.err }},
		{"floor pairs", func() error { d := &decoder{buf: pairs}; decodeFloorPairs(d); return d.err }},
		{"collect buckets", func() error { d := &decoder{buf: collect}; d.count(1); return d.err }},
	} {
		var err error
		if got := allocatedBy(func() { err = c.decode() }); got > limit {
			t.Errorf("%s: allocated %d bytes decoding a tiny frame", c.name, got)
		}
		if err == nil {
			t.Errorf("%s: oversized count decoded cleanly", c.name)
		}
	}
}

func sameState(a, b BucketState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, g := range a {
		h := b[k]
		if h == nil || h.Key != g.Key || h.Count != g.Count || math.Float64bits(h.Sum) != math.Float64bits(g.Sum) {
			return false
		}
	}
	return true
}

// Any input either errors or round-trips: re-encoding the decoded state
// decodes to an equal state, and equal states encode to equal bytes.
func FuzzDecodeState(f *testing.F) {
	f.Add(roundTripStateFrame()[3:]) // past type, bucket, upTo
	f.Add(AppendState(nil, BucketState{}))
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, in []byte) {
		st, rest, err := DecodeState(in)
		if err != nil {
			return
		}
		if !bytes.HasSuffix(in, rest) {
			t.Fatalf("rest is not a suffix of the input")
		}
		enc := AppendState(nil, st)
		st2, rest2, err := DecodeState(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode: err=%v, %d bytes left", err, len(rest2))
		}
		if !sameState(st, st2) {
			t.Fatalf("round trip changed the state: %v != %v", st, st2)
		}
		if !bytes.Equal(AppendState(nil, st2), enc) {
			t.Fatal("equal states encoded to different bytes")
		}
	})
}

// decodeFrame runs the field sequence the exchange's readers (worker
// serve loop, coordinator read loop and control replies, registry) apply
// to each message type; known is false for a type none of them accepts.
func decodeFrame(payload []byte) (d *decoder, known bool) {
	d = &decoder{buf: payload[1:]}
	switch payload[0] {
	case mHello:
		d.uvarint()
		d.varint()
		d.varint()
	case mData:
		decodeData(d)
	case mAck, mAdmit:
		d.uvarint()
		d.varint()
	case mPing:
	case mPong:
		d.varint()
	case mFetch:
		d.uvarint()
		d.byteVal()
	case mState, mInstall, mCollectReply:
		d.uvarint()
		d.varint()
		d.state()
	case mInstalled:
		d.uvarint()
	case mCollect:
		for n := d.count(1); n > 0 && d.err == nil; n-- {
			d.uvarint()
		}
	case mJoin:
		d.bytes(d.uvarint())
		d.bytes(d.uvarint())
		d.varint()
	case mFloors, mAckBatch:
		decodeFloorPairs(d)
	default:
		return d, false
	}
	return d, true
}

// No frame may panic a decoder, and a frame that decodes cleanly to its
// last byte must fail at every truncation — a short read can never pass
// for a complete message.
func FuzzClusterFrame(f *testing.F) {
	entries, data := roundTripDataFrame()
	f.Add(data)
	f.Add(roundTripStateFrame())
	f.Add(appendHello(nil, 2, 5, 100))
	f.Add(appendJoin(nil, "w1", "127.0.0.1:7000", 4))
	f.Add(appendAdmit(nil, 3, 6))
	f.Add(appendFloors(nil, map[int]int64{0: 4, 9: 12}))
	f.Add(appendAckBatch(nil, []int{1, 2}, []int64{8, 9}))
	f.Add(appendAck(nil, 1, 8))
	f.Add(appendPing(nil))
	f.Add(appendPong(nil, 77))
	f.Add(appendFetch(nil, 4, true))
	f.Add(appendInstalled(nil, 4))
	f.Add(appendCollect(nil, []int{0, 3, 5}))
	f.Add(appendData(nil, 0, 1, entries[:1]))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > 1<<12 {
			return
		}
		d, known := decodeFrame(payload)
		if !known || d.err != nil || len(d.buf) != 0 {
			return
		}
		for cut := 1; cut < len(payload); cut++ {
			if d, _ := decodeFrame(payload[:cut]); d.err == nil {
				t.Fatalf("type %d: truncation at %d/%d decoded cleanly", payload[0], cut, len(payload))
			}
		}
	})
}
