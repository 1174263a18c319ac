package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric instruments and renders them in
// Prometheus exposition format (see WritePrometheus in prom.go).
// Registration is not hot-path; reads and instrument updates are.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: HELP, TYPE, and its samples. Exactly one
// of the sample sources is set.
type family struct {
	name, help, typ string

	counter    *Counter
	intFunc    func() int64
	floatFunc  func() float64
	counterVec *CounterVec
	histVec    *HistogramVec
	sampleFunc func() []Sample
}

// Sample is one labeled sample emitted at scrape time, used by
// RegisterSampleFunc for dynamic label sets (e.g. span exports).
type Sample struct {
	Labels []Label
	Value  float64
	// Int renders the value as a decimal integer instead of %g.
	Int bool
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", f.name))
	}
	r.fams[f.name] = f
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; register it to expose it.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative for the value to stay monotonic.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// RegisterCounterFunc exposes fn as a counter sampled at scrape time,
// rendered as a decimal integer. Use for values already tracked
// elsewhere (cache hit totals, etc.).
func (r *Registry) RegisterCounterFunc(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "counter", intFunc: fn})
}

// RegisterGaugeFunc exposes fn as a gauge sampled at scrape time.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge", floatFunc: fn})
}

// RegisterGaugeIntFunc exposes fn as a gauge rendered as a decimal
// integer (queue depths, entry counts).
func (r *Registry) RegisterGaugeIntFunc(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "gauge", intFunc: fn})
}

// RegisterSampleFunc exposes fn as a family of typ ("counter" or
// "gauge") whose labeled samples are produced fresh at each scrape.
// Used for dynamic label sets such as per-stage span totals.
func (r *Registry) RegisterSampleFunc(name, help, typ string, fn func() []Sample) {
	r.add(&family{name: name, help: help, typ: typ, sampleFunc: fn})
}

// labeledVec is the shared child-cache for the *Vec types.
type labeledVec struct {
	mu       sync.Mutex
	names    []string
	children map[string]any
}

func (v *labeledVec) child(values []string, mk func() any) any {
	if len(values) != len(v.names) {
		panic(fmt.Sprintf("obs: got %d label values for %d labels %v", len(values), len(v.names), v.names))
	}
	k := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[k]
	if c == nil {
		c = mk()
		v.children[k] = c
	}
	return c
}

// sortedKeys returns child keys in deterministic order.
func (v *labeledVec) sortedKeys() []string {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.Unlock()
	sort.Strings(keys)
	return keys
}

func (v *labeledVec) labelsFor(key string) []Label {
	values := strings.Split(key, "\x00")
	ls := make([]Label, len(v.names))
	for i, n := range v.names {
		ls[i] = Label{Name: n, Value: values[i]}
	}
	return ls
}

// CounterVec is a counter family with a fixed label-name set.
type CounterVec struct{ vec labeledVec }

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	cv := &CounterVec{vec: labeledVec{names: labelNames, children: make(map[string]any)}}
	r.add(&family{name: name, help: help, typ: "counter", counterVec: cv})
	return cv
}

// With returns the counter for the given label values (positional,
// matching the registered label names), creating it on first use.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.vec.child(values, func() any { return &Counter{} }).(*Counter)
}

// Histogram is a fixed-bucket histogram. Observations and snapshots are
// mutex-guarded so a scrape never sees a torn state: in every snapshot
// Count equals the sum of all bucket counts plus overflow, and Sum is
// consistent with the same set of observations.
type Histogram struct {
	mu sync.Mutex
	// uppers are bucket upper bounds, strictly increasing. counts[i]
	// is the number of observations <= uppers[i] and > uppers[i-1]
	// (per-bucket, cumulated only at render time). overflow counts
	// observations above the last bound (the +Inf bucket's own share).
	uppers   []float64
	counts   []int64
	overflow int64
	sum      float64
	count    int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.count++
	h.sum += v
	placed := false
	for i, ub := range h.uppers {
		if v <= ub {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.overflow++
	}
	h.mu.Unlock()
}

// HistSnapshot is a consistent point-in-time view of a histogram.
type HistSnapshot struct {
	Uppers []float64 // bucket upper bounds
	Counts []int64   // per-bucket (non-cumulative) counts
	// Overflow is the count above the last bound; Count includes it.
	Overflow int64
	Sum      float64
	Count    int64
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	s := HistSnapshot{
		Uppers:   append([]float64(nil), h.uppers...),
		Counts:   append([]int64(nil), h.counts...),
		Overflow: h.overflow,
		Sum:      h.sum,
		Count:    h.count,
	}
	h.mu.Unlock()
	return s
}

func newHistogram(uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing: %v", uppers))
		}
	}
	return &Histogram{uppers: append([]float64(nil), uppers...), counts: make([]int64, len(uppers))}
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, uppers []float64) *Histogram {
	h := newHistogram(uppers)
	hv := &HistogramVec{uppers: h.uppers, vec: labeledVec{children: map[string]any{"": h}}}
	r.add(&family{name: name, help: help, typ: "histogram", histVec: hv})
	return h
}

// HistogramVec is a histogram family with a fixed label-name set. All
// children share one bucket layout.
type HistogramVec struct {
	uppers []float64
	vec    labeledVec
}

// NewHistogramVec registers and returns a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, uppers []float64, labelNames ...string) *HistogramVec {
	hv := &HistogramVec{uppers: append([]float64(nil), uppers...), vec: labeledVec{names: labelNames, children: make(map[string]any)}}
	// Validate bounds once up front.
	newHistogram(hv.uppers)
	r.add(&family{name: name, help: help, typ: "histogram", histVec: hv})
	return hv
}

// With returns the histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.vec.child(values, func() any { return newHistogram(hv.uppers) }).(*Histogram)
}

// DurationBuckets is a general-purpose latency layout in seconds, from
// 1ms to ~4m, roughly ×4 per step — wide enough for both HTTP requests
// and whole-corpus validation runs.
var DurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 240}

// SizeBuckets is a byte-size layout from 1KiB to 1GiB, ×8 per step.
var SizeBuckets = []float64{1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28, 1 << 30}

// RateBuckets is a users-per-second throughput layout.
var RateBuckets = []float64{100, 1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000}
