package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
}

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug, FormatText, "geotest")
	l.now = fixedClock
	l.Log(LevelInfo, "shard committed", "shard", 3, "users", 1500, "path", "/tmp/a b.gsb")
	got := buf.String()
	want := `ts=2026-08-08T12:00:00.123456789Z level=info component=geotest msg="shard committed" shard=3 users=1500 path="/tmp/a b.gsb"` + "\n"
	if got != want {
		t.Fatalf("text line mismatch\n got: %q\nwant: %q", got, want)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug, FormatJSON, "geotest")
	l.now = fixedClock
	l.Log(LevelWarn, "slow shard", "elapsed", 1500*time.Millisecond, "shard", "shard-0007")
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("JSON line does not parse: %v\nline: %s", err, buf.String())
	}
	for k, want := range map[string]any{
		"level":     "warn",
		"component": "geotest",
		"msg":       "slow shard",
		"elapsed":   "1.5s",
		"shard":     "shard-0007",
	} {
		if obj[k] != want {
			t.Errorf("field %q = %v, want %v", k, obj[k], want)
		}
	}
}

func TestLoggerLevelsAndNil(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn, FormatText, "t")
	l.Printf("dropped %d", 1)
	l.Debugf("dropped")
	if buf.Len() != 0 {
		t.Fatalf("below-level lines emitted: %q", buf.String())
	}
	l.Errorf("kept")
	if !strings.Contains(buf.String(), "level=error") {
		t.Fatalf("error line missing: %q", buf.String())
	}
	var nilLogger *Logger
	nilLogger.Printf("must not panic")
	nilLogger.Log(LevelError, "must not panic")
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
	off := NewLogger(&buf, LevelOff, FormatText, "t")
	if off.Enabled(LevelError) {
		t.Fatal("LevelOff logger reports enabled at error")
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]Level{"debug": LevelDebug, "": LevelInfo, "warning": LevelWarn, "ERROR": LevelError, "off": LevelOff} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
	if f, err := ParseLogFormat("json"); err != nil || f != FormatJSON {
		t.Errorf("ParseLogFormat(json) = %v, %v", f, err)
	}
	if _, err := ParseLogFormat("xml"); err == nil {
		t.Error("ParseLogFormat(xml) should fail")
	}
}

func TestCollectorReport(t *testing.T) {
	c := NewCollector()
	c.Stage("match", "shard-0000").Observe(100, 2*time.Second)
	c.Stage("match", "shard-0001").Observe(100, 5*time.Second)
	c.Stage("decode", "shard-0000").Observe(200, time.Second)
	// Re-fetching a cell accumulates into the same counters.
	c.Stage("decode", "shard-0000").Observe(50, time.Second)

	r := c.Report()
	if r.SlowestStage != "match" {
		t.Errorf("slowest stage = %q, want match", r.SlowestStage)
	}
	if r.SlowestShard != "shard-0001" {
		t.Errorf("slowest shard = %q, want shard-0001", r.SlowestShard)
	}
	if r.TotalOps != 450 || r.TotalElapsed != 9*time.Second {
		t.Errorf("totals = %d ops %v, want 450 ops 9s", r.TotalOps, r.TotalElapsed)
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slowest stage: match", "slowest shard: shard-0001", "decode"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if back.TotalOps != 450 {
		t.Errorf("round-tripped TotalOps = %d", back.TotalOps)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	cell := c.Stage("match", "s")
	if cell != nil {
		t.Fatal("nil collector returned non-nil cell")
	}
	cell.Observe(1, time.Second) // must not panic
	if got := c.Snapshot(); got != nil {
		t.Fatalf("nil collector snapshot = %v", got)
	}
	r := c.Report()
	if r.TotalOps != 0 || r.SlowestStage != "" {
		t.Fatalf("nil collector report = %+v", r)
	}
}

// TestCellStartStop pins the span helper: a nil cell returns the zero
// time (no clock read) and allocates nothing; a live cell records the
// Stop count and a positive duration.
func TestCellStartStop(t *testing.T) {
	var off *Cell
	if tm := off.Start(); !tm.IsZero() {
		t.Fatalf("nil cell Start = %v, want the zero time", tm)
	}
	if n := testing.AllocsPerRun(100, func() { off.Stop(off.Start(), 1) }); n != 0 {
		t.Fatalf("nil cell Start/Stop allocates %v times", n)
	}
	c := NewCollector()
	cell := c.Stage("fold", "corpus")
	t0 := cell.Start()
	time.Sleep(time.Millisecond)
	cell.Stop(t0, 7)
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Ops != 7 || snap[0].Elapsed <= 0 {
		t.Fatalf("snapshot after Stop = %+v", snap)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cell := c.Stage("match", "shard")
			for i := 0; i < 1000; i++ {
				cell.Observe(1, time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Ops != 8000 || snap[0].Elapsed != 8000*time.Microsecond {
		t.Fatalf("concurrent accumulation lost updates: %+v", snap)
	}
}

func TestHistogramConsistency(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, 1, 10} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	var sum int64
	for _, n := range s.Counts {
		sum += n
	}
	if sum+s.Overflow != s.Count {
		t.Fatalf("bucket sum %d + overflow %d != count %d", sum, s.Overflow, s.Count)
	}
	if want := []int64{2, 2, 1}; s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", s.Overflow)
	}
	if s.Sum != 566.5 {
		t.Fatalf("sum = %g, want 566.5", s.Sum)
	}
}

// TestHistogramNoTornReads hammers a histogram from writers while a
// reader snapshots, asserting every snapshot is internally consistent
// (count == Σ buckets + overflow). Run under -race this also proves the
// locking discipline.
func TestHistogramNoTornReads(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i % 5))
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var sum int64
		for _, n := range s.Counts {
			sum += n
		}
		if sum+s.Overflow != s.Count {
			t.Fatalf("torn snapshot: buckets %d + overflow %d != count %d", sum, s.Overflow, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "Total events.")
	c.Add(1000000) // must render as 1000000, not 1e+06
	r.RegisterGaugeFunc("test_temperature", "Current temperature.", func() float64 { return 36.6 })
	r.RegisterCounterFunc("test_func_total", "Sampled at scrape.", func() int64 { return 42 })
	r.RegisterGaugeIntFunc("test_queue_depth", "Queue depth.", func() int64 { return 7 })
	cv := r.NewCounterVec("test_requests_total", "Requests by route.", "route", "status")
	cv.With("/v1/datasets", "200").Add(3)
	cv.With(`/weird"path\n`, "500").Inc()
	h := r.NewHistogram("test_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.RegisterSampleFunc("test_stage_seconds_total", "Span seconds.", "counter", func() []Sample {
		return []Sample{{Labels: []Label{{"stage", "match"}}, Value: 1.25}}
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_events_total Total events.\n# TYPE test_events_total counter\ntest_events_total 1000000\n",
		"test_temperature 36.6\n",
		"test_func_total 42\n",
		"test_queue_depth 7\n",
		`test_requests_total{route="/v1/datasets",status="200"} 3`,
		`test_requests_total{route="/weird\"path\\n",status="500"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55\n",
		"test_latency_seconds_count 3\n",
		`test_stage_seconds_total{stage="match"} 1.25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got:\n%s", want, out)
		}
	}
	if errs := LintExposition(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("self-lint failed: %v\n--- payload:\n%s", errs, out)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("test_http_seconds", "Latency by route.", []float64{0.1, 1}, "route", "status")
	hv.With("/a", "200").Observe(0.05)
	hv.With("/a", "200").Observe(2)
	hv.With("/b", "404").Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_http_seconds_bucket{route="/a",status="200",le="+Inf"} 2`,
		`test_http_seconds_count{route="/a",status="200"} 2`,
		`test_http_seconds_bucket{route="/b",status="404",le="0.1"} 0`,
		`test_http_seconds_bucket{route="/b",status="404",le="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got:\n%s", want, out)
		}
	}
	if errs := LintExposition(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("self-lint failed: %v\n--- payload:\n%s", errs, out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "y")
}

func TestLintCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"missing HELP/TYPE": "orphan_total 1\n",
		"duplicate sample":  "# HELP a_total x\n# TYPE a_total counter\na_total 1\na_total 2\n",
		"non-contiguous family": "# HELP a_total x\n# TYPE a_total counter\na_total 1\n" +
			"# HELP b_total y\n# TYPE b_total counter\nb_total 1\na_total 3\n",
		"bad escape": "# HELP a_total x\n# TYPE a_total counter\n" + `a_total{l="\q"} 1` + "\n",
		"decreasing cumulative buckets": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" + `h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n",
		"no +Inf bucket": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\nh_sum 1\nh_count 5\n",
		"+Inf != count": "# HELP h x\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_sum 1\nh_count 5\n",
		"bad value":      "# HELP a_total x\n# TYPE a_total counter\na_total abc\n",
		"bad name":       "# HELP a_total x\n# TYPE a_total counter\n9bad_total 1\n",
		"duplicate TYPE": "# HELP a_total x\n# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n",
	}
	for name, payload := range cases {
		if errs := LintExposition([]byte(payload)); len(errs) == 0 {
			t.Errorf("%s: lint accepted invalid payload:\n%s", name, payload)
		}
	}
	valid := "# HELP ok_total fine\n# TYPE ok_total counter\nok_total 1\n"
	if errs := LintExposition([]byte(valid)); len(errs) != 0 {
		t.Errorf("lint rejected valid payload: %v", errs)
	}
}

func TestFormatLe(t *testing.T) {
	if got := formatLe(1024); got != "1024" {
		t.Errorf("formatLe(1024) = %q", got)
	}
	if got := formatLe(0.005); got != "0.005" {
		t.Errorf("formatLe(0.005) = %q", got)
	}
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
}

func TestVersionString(t *testing.T) {
	if got := VersionString("geotool"); got != "geotool "+Version {
		t.Errorf("VersionString = %q", got)
	}
}
