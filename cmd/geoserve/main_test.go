package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"geosocial"
)

// bannerWriter captures run()'s stdout and signals the resolved listen
// address as soon as the banner appears.
type bannerWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

var bannerRE = regexp.MustCompile(`listening on http://([^ \n]+)`)

func (w *bannerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if m := bannerRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *bannerWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServer runs the tool on an ephemeral port and returns its base
// URL plus a shutdown func that asserts a clean exit.
func startServer(t *testing.T, extraArgs ...string) (baseURL string, out *bannerWriter, shutdown func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &bannerWriter{addr: make(chan string, 1)}
	args := append([]string{"-addr", "127.0.0.1:0", "-spool", t.TempDir(), "-poll", "50ms"}, extraArgs...)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out, io.Discard) }()
	select {
	case addr := <-out.addr:
		baseURL = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never printed its listen banner")
	}
	return baseURL, out, func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("run returned %v on shutdown", err)
			}
		case <-time.After(15 * time.Second):
			t.Error("run did not return after cancel")
		}
	}
}

// saveDataset generates the small deterministic study used across the
// e2e tests and saves its primary dataset as a binary file.
func saveDataset(t *testing.T) string {
	t.Helper()
	study, err := geosocial.GenerateStudy(geosocial.StudyConfig{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "primary.bin.gz")
	if err := study.Primary.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// jobInfo mirrors the service's job JSON for decoding in tests.
type jobInfo struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Users  int    `json:"users"`
	Error  string `json:"error"`
}

// upload POSTs the file and waits for validation to finish.
func upload(t *testing.T, baseURL, path string) (jobInfo, *http.Response) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resp, err := http.Post(baseURL+"/v1/datasets?wait=1", "application/octet-stream", f)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode upload response: %v", err)
	}
	return info, resp
}

// getBody fetches a URL and returns the raw body and response.
func getBody(t *testing.T, url string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp
}

// serviceJSON reproduces the service's JSON encoding (two-space indent,
// trailing newline — the same encoding geovalidate -json uses), so
// expected documents can be compared byte-for-byte.
func serviceJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// metricValue extracts one counter from the /metrics text.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %f", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

// TestEndToEnd is the acceptance path: upload → validate → fetch the
// partition twice — the second fetch is a cache hit and no second
// validation runs — with the served partition byte-identical to the
// facade's ValidateFileOpts (geovalidate's engine; the geovalidate
// run() comparison lives in cmd/geovalidate) at workers 1 and 8.
func TestEndToEnd(t *testing.T) {
	dataset := saveDataset(t)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseURL, _, shutdown := startServer(t, "-workers", fmt.Sprint(workers))
			defer shutdown()

			info, resp := upload(t, baseURL, dataset)
			if info.Status != "done" {
				t.Fatalf("upload job not done: %+v", info)
			}
			if resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("first upload X-Cache = %q", resp.Header.Get("X-Cache"))
			}

			want, err := geosocial.ValidateFileOpts(dataset, geosocial.StreamOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			wantPartition := serviceJSON(t, want.Partition)

			// First fetch.
			got1, r1 := getBody(t, baseURL+"/v1/datasets/"+info.ID+"/partition")
			if !bytes.Equal(got1, wantPartition) {
				t.Fatalf("served partition differs from the validation engine's:\n%s\nvs\n%s", got1, wantPartition)
			}
			// Second fetch: byte-identical again, and a cache hit.
			got2, r2 := getBody(t, baseURL+"/v1/datasets/"+info.ID+"/partition")
			if !bytes.Equal(got1, got2) {
				t.Fatal("two fetches of the same partition differ")
			}
			if r1.Header.Get("X-Cache") != "hit" || r2.Header.Get("X-Cache") != "hit" {
				t.Fatalf("partition fetches not served from cache: %q, %q",
					r1.Header.Get("X-Cache"), r2.Header.Get("X-Cache"))
			}

			// Exactly one validation ran; the fetches hit the cache.
			metrics, _ := getBody(t, baseURL+"/metrics")
			if v := metricValue(t, string(metrics), "geoserve_datasets_validated_total"); v != 1 {
				t.Fatalf("validations = %v, want 1", v)
			}
			if v := metricValue(t, string(metrics), "geoserve_cache_hits_total"); v < 2 {
				t.Fatalf("cache hits = %v, want >= 2", v)
			}
			if v := metricValue(t, string(metrics), "geoserve_users_validated_total"); v != float64(want.Users) {
				t.Fatalf("users validated = %v, want %d", v, want.Users)
			}

			// Re-uploading identical bytes never revalidates.
			again, resp2 := upload(t, baseURL, dataset)
			if again.ID != info.ID || resp2.Header.Get("X-Cache") != "hit" {
				t.Fatalf("duplicate upload: %+v X-Cache=%q", again, resp2.Header.Get("X-Cache"))
			}
			metrics, _ = getBody(t, baseURL+"/metrics")
			if v := metricValue(t, string(metrics), "geoserve_datasets_validated_total"); v != 1 {
				t.Fatalf("duplicate upload revalidated: %v", v)
			}

			// Full result document agrees with the engine too.
			var doc struct {
				Result *geosocial.StreamResult `json:"result"`
			}
			body, _ := getBody(t, baseURL+"/v1/datasets/"+info.ID)
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Result == nil {
				t.Fatal("dataset document has no result")
			}
			// The served document was decoded from the cache; shards are
			// nil for a plain file on both sides.
			if !bytes.Equal(serviceJSON(t, doc.Result), serviceJSON(t, want)) {
				t.Fatalf("served result differs from engine result:\n%s\nvs\n%s",
					serviceJSON(t, doc.Result), serviceJSON(t, want))
			}
		})
	}
}

// TestSpoolPickup drops a dataset into the spool directory and lets the
// watcher find it.
func TestSpoolPickup(t *testing.T) {
	dataset := saveDataset(t)
	spool := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &bannerWriter{addr: make(chan string, 1)}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-spool", spool, "-poll", "20ms"}, out, io.Discard)
	}()
	var baseURL string
	select {
	case addr := <-out.addr:
		baseURL = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("no banner")
	}

	// Copy the dataset into the spool; the watcher needs it stable
	// across two scans before ingesting.
	data, err := os.ReadFile(dataset)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "dropped.bin.gz"), data, 0o666); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		body, _ := getBody(t, baseURL+"/v1/datasets")
		var list struct {
			Datasets []jobInfo `json:"datasets"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Datasets) == 1 && list.Datasets[0].Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spooled dataset never validated: %s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown banner in output:\n%s", out.String())
	}
}

// TestDebugAddrServesPprof pins the -debug-addr contract: the pprof
// endpoint lives on its own listener, and the public API listener never
// exposes /debug/pprof.
func TestDebugAddrServesPprof(t *testing.T) {
	baseURL, out, shutdown := startServer(t, "-debug-addr", "127.0.0.1:0")
	defer shutdown()

	pprofRE := regexp.MustCompile(`pprof on http://([^/\s]+)`)
	m := pprofRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no pprof banner in output:\n%s", out.String())
	}
	body, resp := getBody(t, "http://"+m[1]+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof cmdline: status %d, %d bytes", resp.StatusCode, len(body))
	}
	// The public listener must not expose the profiler.
	_, resp = getBody(t, baseURL+"/debug/pprof/")
	if resp.StatusCode == http.StatusOK {
		t.Fatal("public API listener serves /debug/pprof")
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-nope"}, io.Discard, io.Discard); err != errUsage {
		t.Fatalf("bad flag: %v", err)
	}
	if err := run(ctx, nil, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-spool") {
		t.Fatalf("missing -spool: %v", err)
	}
	if err := run(ctx, []string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("-h: %v", err)
	}
}
