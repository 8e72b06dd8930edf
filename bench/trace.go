package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. The ladder records a root span per
// 256-row batch and one child per layer it feeds the batch to; a span's
// self time is its duration minus what its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine.
type spanLog struct {
	base     time.Time
	workload string
	spans    []span
}

func (l *spanLog) now() int64 {
	if l.base.IsZero() {
		l.base = time.Now()
	}
	return int64(time.Since(l.base))
}

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Workload: l.workload, Name: name, Start: l.now()})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) int64 {
	s := &l.spans[id-1]
	s.End = l.now()
	return s.End - s.Start
}

// selfTimes sums, per span name, duration minus the children's.
func (l *spanLog) selfTimes() map[string]int64 {
	self := map[string]int64{}
	for _, s := range l.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent != 0 {
			self[l.spans[s.Parent-1].Name] -= s.End - s.Start
		}
	}
	return self
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
