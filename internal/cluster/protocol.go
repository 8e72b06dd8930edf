// Package cluster is the networked Flux deployment (§2.4; Shah et al.):
// real tcqd processes in coordinator and worker roles connected by a
// length-prefixed TCP exchange. The coordinator owns the bucket→node
// shard map and routes partitioned consumer input; workers hold the
// movable BucketState partitions. Robustness properties:
//
//   - At-least-once delivery with per-bucket sequence dedup: the
//     coordinator retains every routed entry until both replicas have
//     acknowledged it and retransmits after reconnects and failovers;
//     workers skip (but re-ack) any sequence at or below their applied
//     floor, so retries never double-count.
//   - Loosely coupled process pairs: every bucket has a primary and a
//     secondary fed the same input (the data frame is encoded once and
//     the same bytes written to both — the encode-once discipline of
//     internal/fanout applied to the exchange).
//   - Heartbeat failure detection with deadlines: a node that stays
//     silent past its deadline is declared dead and every bucket it
//     ran as primary is promoted to its secondary, losing zero acked
//     tuples; replication is then repaired onto a surviving node by
//     state movement.
//   - Online state movement: BucketState (state.go) serializes over
//     the wire for both failover catch-up and bucket handoff under
//     skew.
//
// This file defines the wire protocol shared by both roles.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// Message types. Every frame is u32 little-endian payload length, then
// a payload beginning with one of these bytes.
const (
	mHello     byte = iota + 1 // coordinator → worker: node id assignment
	mData                      // a batch of (key,val) entries for one bucket
	mAck                       // worker → coordinator: applied floor for one bucket
	mPing                      // coordinator → worker: heartbeat probe
	mPong                      // worker → coordinator: heartbeat reply + processed count
	mFetch                     // fetch one bucket's state (optionally dropping it)
	mState                     // reply to mFetch: serialized state + applied floor
	mInstall                   // install state + applied floor on a worker
	mInstalled                 // reply to mInstall
	mCollect                   // fetch the merged state of a bucket list
	mCollectReply
	mJoin     // worker → coordinator registry: HELLO (name, exchange addr, max epoch seen)
	mAdmit    // coordinator → worker registry: ADMIT (node id, epoch)
	mFloors   // worker → coordinator: applied floors for every held bucket
	mAckBatch // worker → coordinator: coalesced applied floors for dirty buckets
)

// maxFrame bounds one frame; state frames dominate (a bucket's groups).
const maxFrame = 64 << 20

// Entry is one routed (key, value) observation — the flattened tuple
// the partitioned consumer folds.
type Entry struct {
	Key string
	Val float64
}

// wire is a framed duplex connection: reads are exclusive to one reader
// goroutine; writes are serialized by the mutex so routing, heartbeats,
// and control traffic can share the connection.
type wire struct {
	c  net.Conn
	r  *bufio.Reader
	wm sync.Mutex
	w  *bufio.Writer
}

func newWire(c net.Conn) *wire {
	return &wire{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}
}

// writeFrame sends one already-encoded payload. The payload is only
// read, so the same buffer may be written to several wires (the
// encode-once path for process pairs).
func (w *wire) writeFrame(payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	w.wm.Lock()
	defer w.wm.Unlock()
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	return w.w.Flush()
}

// readFrame returns the next payload. The returned slice is owned by
// the caller.
func (w *wire) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(w.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("cluster: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(w.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (w *wire) close() { w.c.Close() }

// ---------------------------------------------------------------- encode

// appendHello opens an exchange connection: the worker learns its node
// id, the coordinator's epoch (workers fence anything older than the
// highest epoch they have seen), and the heartbeat interval that paces
// its ack coalescing.
func appendHello(dst []byte, nodeID int, epoch int64, heartbeatMs int64) []byte {
	dst = append(dst, mHello)
	dst = binary.AppendUvarint(dst, uint64(nodeID))
	dst = binary.AppendVarint(dst, epoch)
	return binary.AppendVarint(dst, heartbeatMs)
}

// appendJoin is the registry HELLO: a worker announces its stable name,
// the exchange address the coordinator should dial back, and the
// highest coordinator epoch it has ever been admitted under (so a new
// coordinator can detect that it is the stale one and self-fence).
func appendJoin(dst []byte, name, exchangeAddr string, maxEpoch int64) []byte {
	dst = append(dst, mJoin)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(len(exchangeAddr)))
	dst = append(dst, exchangeAddr...)
	return binary.AppendVarint(dst, maxEpoch)
}

// appendAdmit is the registry ADMIT reply carrying the worker's node id
// and the admitting coordinator's epoch.
func appendAdmit(dst []byte, nodeID int, epoch int64) []byte {
	dst = append(dst, mAdmit)
	dst = binary.AppendUvarint(dst, uint64(nodeID))
	return binary.AppendVarint(dst, epoch)
}

// appendFloors reports every bucket floor a worker holds; sent once as
// the first frame after an exchange hello so a recovered coordinator
// can reconcile journaled floors against worker truth before any data
// or control traffic for those buckets.
func appendFloors(dst []byte, floors map[int]int64) []byte {
	dst = append(dst, mFloors)
	dst = binary.AppendUvarint(dst, uint64(len(floors)))
	for b, f := range floors {
		dst = binary.AppendUvarint(dst, uint64(b))
		dst = binary.AppendVarint(dst, f)
	}
	return dst
}

// appendAckBatch coalesces the applied floors of every bucket dirtied
// since the last flush into one frame.
func appendAckBatch(dst []byte, buckets []int, floors []int64) []byte {
	dst = append(dst, mAckBatch)
	dst = binary.AppendUvarint(dst, uint64(len(buckets)))
	for i, b := range buckets {
		dst = binary.AppendUvarint(dst, uint64(b))
		dst = binary.AppendVarint(dst, floors[i])
	}
	return dst
}

// decodeFloorPairs decodes the (bucket, floor) list shared by mFloors
// and mAckBatch; a pair is at least two bytes.
func decodeFloorPairs(d *decoder) map[int]int64 {
	n := d.count(2)
	if d.err != nil {
		return nil
	}
	m := make(map[int]int64, n)
	for i := uint64(0); i < n; i++ {
		b := int(d.uvarint())
		f := d.varint()
		if d.err != nil {
			return nil
		}
		m[b] = f
	}
	return m
}

// appendData encodes one bucket's entry batch with contiguous sequence
// numbers baseSeq..baseSeq+len(entries)-1. Encoded once per batch; the
// identical bytes go to the primary and the secondary.
func appendData(dst []byte, bucket int, baseSeq int64, entries []Entry) []byte {
	dst = append(dst, mData)
	dst = binary.AppendUvarint(dst, uint64(bucket))
	dst = binary.AppendVarint(dst, baseSeq)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
		dst = append(dst, e.Key...)
		dst = binary.AppendUvarint(dst, math.Float64bits(e.Val))
	}
	return dst
}

func appendAck(dst []byte, bucket int, upTo int64) []byte {
	dst = append(dst, mAck)
	dst = binary.AppendUvarint(dst, uint64(bucket))
	return binary.AppendVarint(dst, upTo)
}

func appendPing(dst []byte) []byte { return append(dst, mPing) }

func appendPong(dst []byte, processed int64) []byte {
	dst = append(dst, mPong)
	return binary.AppendVarint(dst, processed)
}

func appendFetch(dst []byte, bucket int, drop bool) []byte {
	dst = append(dst, mFetch)
	dst = binary.AppendUvarint(dst, uint64(bucket))
	if drop {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendState(dst []byte, msg byte, bucket int, upTo int64, st BucketState) []byte {
	dst = append(dst, msg)
	dst = binary.AppendUvarint(dst, uint64(bucket))
	dst = binary.AppendVarint(dst, upTo)
	return AppendState(dst, st)
}

func appendInstalled(dst []byte, bucket int) []byte {
	dst = append(dst, mInstalled)
	return binary.AppendUvarint(dst, uint64(bucket))
}

func appendCollect(dst []byte, buckets []int) []byte {
	dst = append(dst, mCollect)
	dst = binary.AppendUvarint(dst, uint64(len(buckets)))
	for _, b := range buckets {
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return dst
}

// ---------------------------------------------------------------- decode

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("cluster: truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("cluster: truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads an element count and rejects one the remaining bytes
// cannot hold at minBytes per element: counts come off the wire and
// size pre-allocations, so a short frame must not be able to ask for a
// large one.
func (d *decoder) count(minBytes int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/minBytes) {
		d.err = fmt.Errorf("cluster: count %d exceeds the %d bytes left", n, len(d.buf))
		return 0
	}
	return n
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.err = fmt.Errorf("cluster: truncated bytes")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) byteVal() byte {
	b := d.bytes(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

func decodeData(d *decoder) (bucket int, baseSeq int64, entries []Entry) {
	bucket = int(d.uvarint())
	baseSeq = d.varint()
	n := d.count(2) // an entry is at least a key length and a value byte
	if d.err != nil {
		return
	}
	entries = make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		kl := d.uvarint()
		key := string(d.bytes(kl))
		val := math.Float64frombits(d.uvarint())
		if d.err != nil {
			return
		}
		entries = append(entries, Entry{Key: key, Val: val})
	}
	return
}
