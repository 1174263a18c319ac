package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the ID of the enclosing span
// (0 for a root); times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. It is safe
// for concurrent use: the service workload records client spans from
// the writer and the reader goroutines. A nil recorder records nothing,
// which is how the untimed passes run untraced.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span with the given ID.
func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished span with explicit bounds, for open-loop
// requests whose latency runs from their scheduled send time.
func (r *recorder) add(name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans) + 1), Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// timed runs fn inside a span named name.
func (r *recorder) timed(name string, parent int64, fn func() error) error {
	id := r.begin(name, parent)
	err := fn()
	r.end(id)
	return err
}

// layerTime is the self time and call count of every span of one name.
type layerTime struct {
	Self  time.Duration
	Calls int
}

// selfTimes aggregates self time per span name: a span's duration minus
// the part of it its child spans cover. Children never overlap their
// siblings here (each parent's children run sequentially), so the
// covered part is the sum of the children's durations.
func (r *recorder) selfTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for _, s := range r.spans {
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - covered[s.ID])
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	doc := struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{r.epoch, r.spans}
	data, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
