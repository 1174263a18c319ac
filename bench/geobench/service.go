package main

// The service workload: an in-process geosocial server on a loopback
// httptest listener, driven by two clients over one connection each.
// The writer is a closed loop of upload → analysis cycles with an
// append every fourth cycle; the reader is an open loop of result reads
// at a fixed rate, timed from each request's scheduled send time, plus
// one /metrics scrape per second.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"geosocial"
	"geosocial/internal/serve"
)

// readRate is the open-loop reader's request rate, in requests/s.
const readRate = 200

// readRoutes are the per-dataset result routes the reader cycles over.
var readRoutes = []string{"partition", "taxonomy", "analysis/summary"}

type service struct {
	srv    *serve.Server
	hs     *httptest.Server
	writer *http.Client
	reader *http.Client
	rec    *recorder
	corpus []byte
	users  int
	deltas []string
	refs   map[int][]byte // checked upload index -> reference partition
	setID  string         // current generation of the appended set
	next   int            // next delta to append

	mu    sync.Mutex
	ready []string // completed dataset IDs the reader may query
}

// writerStats are the writer's operations; only its goroutine touches them.
type writerStats struct {
	attempted, failed int
	upload            []float64 // seconds
	analysis          []float64
	appended          []float64
	users             int // users in successful uploads
}

// readerStats are the reader's operations; only its goroutine touches them.
type readerStats struct {
	attempted, failed int
	reads             map[string][]float64 // route -> seconds from scheduled send
	late              []float64            // seconds the send trailed its schedule
	scrape            []float64
}

func (w *writerStats) done(err error) bool {
	w.attempted++
	if err != nil {
		w.failed++
		if w.failed <= 3 {
			fmt.Fprintf(os.Stderr, "geobench: service writer: %v\n", err)
		}
		return false
	}
	return true
}

func (r *readerStats) done(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 3 {
			fmt.Fprintf(os.Stderr, "geobench: service reader: %v\n", err)
		}
		return false
	}
	return true
}

// oneConn is a client that keeps a single connection to the server.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// startService starts the server over dir/spool, registers the prepared
// shard set, and waits for its validation.
func startService(dir string, workers int, rec *recorder) (*service, error) {
	srv, err := geosocial.NewServer(geosocial.ServerOptions{
		SpoolDir:     filepath.Join(dir, "spool"),
		PollInterval: -1,
		Outcomes:     true,
		Stream:       geosocial.StreamOptions{Workers: workers},
	})
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, hs: httptest.NewServer(srv), writer: oneConn(), reader: oneConn(), rec: rec, refs: map[int][]byte{}}
	fail := func(err error) (*service, error) {
		s.close()
		return nil, err
	}
	if s.corpus, err = os.ReadFile(filepath.Join(dir, "..", "corpus.bin")); err != nil {
		return fail(err)
	}
	if s.users, err = corpusUsers(s.corpus); err != nil {
		return fail(err)
	}
	if s.deltas, err = filepath.Glob(filepath.Join(dir, "delta-*.gsb")); err != nil {
		return fail(err)
	}
	sort.Strings(s.deltas)
	for k := 0; k < refWindows; k++ {
		data, err := os.ReadFile(windowRefPath(dir, k*refEvery))
		if os.IsNotExist(err) {
			break
		}
		if err != nil {
			return fail(err)
		}
		s.refs[k*refEvery] = data
	}
	job, err := srv.Add(filepath.Join(dir, "set"))
	if err != nil {
		return fail(err)
	}
	if _, err := s.getJob(s.writer, "/v1/datasets/"+job.ID+"?wait=1"); err != nil {
		return fail(err)
	}
	s.setID = job.ID
	s.ready = []string{job.ID}
	return s, nil
}

func (s *service) close() {
	s.hs.Close()
	s.srv.Close()
	s.writer.CloseIdleConnections()
	s.reader.CloseIdleConnections()
}

// do sends one request; a non-2xx status is an error.
func (s *service) do(c *http.Client, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.hs.URL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

type jobInfo struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// getJob fetches a job and requires it to be done.
func (s *service) getJob(c *http.Client, path string) (jobInfo, error) {
	data, err := s.do(c, http.MethodGet, path, nil)
	if err != nil {
		return jobInfo{}, err
	}
	return decodeDone(data)
}

func decodeDone(data []byte) (jobInfo, error) {
	var j jobInfo
	if err := json.Unmarshal(data, &j); err != nil {
		return j, err
	}
	if j.Status != "done" {
		return j, fmt.Errorf("dataset %.12s is %s: %s", j.ID, j.Status, j.Error)
	}
	return j, nil
}

func (s *service) publish(id string) {
	s.mu.Lock()
	s.ready = append(s.ready, id)
	s.mu.Unlock()
}

func (s *service) pick(k int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready[k%len(s.ready)]
}

// timedDo is do inside a client span, returning the latency.
func (s *service) timedDo(c *http.Client, name, method, path string, body []byte) ([]byte, float64, error) {
	id := s.rec.begin(name, 0)
	t0 := time.Now()
	data, err := s.do(c, method, path, body)
	d := time.Since(t0).Seconds()
	s.rec.end(id)
	return data, d, err
}

// cycle is one writer iteration: upload window i and wait for its
// validation, check it against its reference when it has one, read its
// (uncached) analysis summary, and every fourth cycle append the next
// delta to the set and wait for the incremental update.
func (s *service) cycle(i int, st *writerStats) {
	body, err := window(s.corpus, s.users, i)
	if !st.done(err) {
		return
	}
	data, d, err := s.timedDo(s.writer, "serve.upload", http.MethodPost, "/v1/datasets?wait=1", body)
	var job jobInfo
	if err == nil {
		job, err = decodeDone(data)
	}
	if !st.done(err) {
		return
	}
	st.upload = append(st.upload, d)
	st.users += windowLen(s.users, i)
	if ref, ok := s.refs[i]; ok {
		got, err := s.do(s.writer, http.MethodGet, "/v1/datasets/"+job.ID+"/partition", nil)
		if err == nil && !bytes.Equal(got, ref) {
			err = fmt.Errorf("upload %d: partition differs from the facade reference", i)
		}
		st.done(err)
	}
	_, d, err = s.timedDo(s.writer, "serve.analysis", http.MethodGet, "/v1/datasets/"+job.ID+"/analysis/summary", nil)
	if st.done(err) {
		st.analysis = append(st.analysis, d)
	}
	s.publish(job.ID)
	if i%4 != 3 || s.next >= len(s.deltas) {
		return
	}
	delta, err := os.ReadFile(s.deltas[s.next])
	s.next++
	if !st.done(err) {
		return
	}
	data, d, err = s.timedDo(s.writer, "serve.append", http.MethodPost, "/v1/datasets/"+s.setID+"/append?wait=1", delta)
	if err == nil {
		job, err = decodeDone(data)
	}
	if st.done(err) {
		st.appended = append(st.appended, d)
		s.setID = job.ID
		s.publish(job.ID)
	}
}

// read runs the open-loop reader until stop closes.
func (s *service) read(rate float64, stop <-chan struct{}, st *readerStats) {
	st.reads = make(map[string][]float64)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	nextScrape := start.Add(time.Second)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		st.late = append(st.late, sent.Sub(due).Seconds())
		if !sent.Before(nextScrape) {
			nextScrape = nextScrape.Add(time.Second)
			_, d, err := s.timedDo(s.reader, "serve.scrape", http.MethodGet, "/metrics", nil)
			if st.done(err) {
				st.scrape = append(st.scrape, d)
			}
		}
		route := readRoutes[k%len(readRoutes)]
		_, err := s.do(s.reader, http.MethodGet, "/v1/datasets/"+s.pick(k)+"/"+route, nil)
		end := time.Now()
		s.rec.add("serve.read."+route, 0, due, end)
		if st.done(err) {
			st.reads[route] = append(st.reads[route], end.Sub(due).Seconds())
		}
	}
}

// traffic runs the writer for dur beside the open-loop reader and
// returns both sides' statistics and the server's metric deltas.
func (s *service) traffic(dur time.Duration, firstCycle int) (*writerStats, *readerStats, map[string]float64, error) {
	before, err := s.scrapeValues()
	if err != nil {
		return nil, nil, nil, err
	}
	w, r := &writerStats{}, &readerStats{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.read(readRate, stop, r)
	}()
	deadline := time.Now().Add(dur)
	for i := firstCycle; time.Now().Before(deadline); i++ {
		s.cycle(i, w)
	}
	close(stop)
	wg.Wait()
	after, err := s.scrapeValues()
	if err != nil {
		return nil, nil, nil, err
	}
	for k, v := range after {
		after[k] = v - before[k]
	}
	return w, r, after, nil
}

// scrapeValues reads /metrics into series -> value.
func (s *service) scrapeValues() (map[string]float64, error) {
	data, err := s.do(s.writer, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// allReads pools every route's read latencies.
func (r *readerStats) allReads() []float64 {
	var all []float64
	for _, route := range readRoutes {
		all = append(all, r.reads[route]...)
	}
	return all
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serveLayers derives the serve.* and loadgen.* per-layer metrics.
func serveLayers(w *writerStats, r *readerStats, delta map[string]float64) map[string]metric {
	return map[string]metric{
		"serve.read_us_p50.partition": {median(r.reads["partition"]) * 1e6, "us"},
		"serve.read_us_p50.taxonomy":  {median(r.reads["taxonomy"]) * 1e6, "us"},
		"serve.read_us_p50.analysis":  {median(r.reads["analysis/summary"]) * 1e6, "us"},
		"serve.scrape_ms_p50":         {median(r.scrape) * 1e3, "ms"},
		"serve.validation_share": {ratio(delta["geoserve_validation_duration_seconds_sum"],
			sum(w.upload)+sum(w.appended)), "ratio"},
		"serve.cache_hit_share": {ratio(delta["geoserve_cache_hits_total"],
			delta["geoserve_cache_hits_total"]+delta["geoserve_cache_misses_total"]), "ratio"},
		"serve.incremental_share": {ratio(delta["geoserve_incremental_updates_total"], float64(len(w.appended))), "ratio"},
		"loadgen.late_ms_p99":     {quantile(r.late, 0.99) * 1e3, "ms"},
	}
}

// serviceWorkload: the timed service pass. The end-to-end operation is
// the upload round trip.
func serviceWorkload(o options) (report, error) {
	t0 := time.Now()
	s, err := startService(filepath.Join(o.dir, "service"), o.workers, nil)
	if err != nil {
		return report{}, err
	}
	defer s.close()
	prep := time.Since(t0)
	warm := &writerStats{}
	s.cycle(0, warm)
	w, r, _, err := s.traffic(o.duration(), 1)
	if err != nil {
		return report{}, err
	}
	w.attempted += warm.attempted
	w.failed += warm.failed
	l := &loop{lats: w.upload, users: w.users, attempted: w.attempted + r.attempted, failed: w.failed + r.failed}
	reads := r.allReads()
	return l.report(prep,
		info{"upload_s_p90", quantile(w.upload, 0.90), "s"},
		info{"analysis_s_p50", median(w.analysis), "s"},
		info{"append_updated_s_p50", median(w.appended), "s"},
		info{"read_ms_p50", median(reads) * 1e3, "ms"},
		info{"read_ms_p99", quantile(reads, 0.99) * 1e3, "ms"},
		info{"reads", float64(len(reads)), "count"},
		info{"late_ms_p99", quantile(r.late, 0.99) * 1e3, "ms"},
	), nil
}
