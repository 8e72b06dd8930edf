package main

import (
	"math/rand"
)

// input is the whole generated run: the wrapper lines, byte for byte as
// they go on the wire, plus the three attributes per row the checker
// evaluates queries on. Row i's id column is i.
type input struct {
	buf  []byte   // "stream,fields...\n" lines, concatenated
	off  []uint32 // off[i] = start of line i; off[n] = len(buf)
	strm []uint8  // stream index into workload.streams
	key  []int16  // symbol/group index, markerKey on marker rows
	val  []int32  // price / score / v0 / v, in eighths
	pfx  []int    // per stream: len("stream,")
}

func (in *input) n() int { return len(in.strm) }

// payload is line i as a result row would render it: no stream prefix,
// no newline.
func (in *input) payload(i int) []byte {
	return in.buf[int(in.off[i])+in.pfx[in.strm[i]] : in.off[i+1]-1]
}

func isMarker(id int) bool { return id%blockRows == blockRows-1 }

// generate builds n rows of w from seed. The same (w, seed, n) gives the
// same bytes; a prefix of a longer run is identical to the shorter run.
func generate(w *workload, seed int64, n int) *input {
	rng := rand.New(rand.NewSource(seed))
	in := &input{
		buf:  make([]byte, 0, n*40),
		off:  make([]uint32, 0, n+1),
		strm: make([]uint8, n),
		key:  make([]int16, n),
		val:  make([]int32, n),
	}
	for _, s := range w.streams {
		in.pfx = append(in.pfx, len(s)+1)
	}
	for i := 0; i < n; i++ {
		in.off = append(in.off, uint32(len(in.buf)))
		var s uint8
		if w.stream != nil && !isMarker(i) {
			s = w.stream(i)
		}
		in.strm[i] = s
		in.buf = append(in.buf, w.streams[s]...)
		in.buf = append(in.buf, ',')
		if isMarker(i) {
			in.buf = w.markerRow(i, in.buf)
			in.key[i] = markerKey
		} else {
			in.buf, in.key[i], in.val[i] = w.row(rng, i, in.buf)
		}
		in.buf = append(in.buf, '\n')
	}
	in.off = append(in.off, uint32(len(in.buf)))
	return in
}

// standingQueries draws the workload's queries. They come from their own
// random sequence so that the row count does not shift them.
func standingQueries(w *workload, seed int64) []query {
	return w.queries(rand.New(rand.NewSource(seed ^ 0x5eed5eed)))
}
