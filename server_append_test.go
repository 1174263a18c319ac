package geosocial

// HTTP-level acceptance for the live ingest path: a corpus grown
// through POST /v1/datasets/{id}/append, revalidated incrementally by
// the service, must serve a result document and an outcome log
// byte-identical to a cold CLI-style validation of the appended corpus
// — and the /metrics counter must prove the incremental path (not a
// silent full revalidation) produced them.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"geosocial/internal/serve"
	"geosocial/internal/trace"
)

func TestServerAppendEquivalence(t *testing.T) {
	base, gens, _ := splitAppendCorpus(t, "twogen")
	spool := t.TempDir()
	manifest, err := base.SaveShards(spool, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(ServerOptions{
		SpoolDir:     spool,
		PollInterval: -1, // no watcher: the test controls ingest order
		Outcomes:     true,
		Stream:       StreamOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, err := srv.Add(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var job serve.JobInfo
	getJSON(t, ts.URL+"/v1/datasets/"+info.ID+"?wait=1", &job)
	if job.Status != serve.StatusDone {
		t.Fatalf("generation-0 job: %+v", job)
	}

	// Append each generation over the wire as a GSB1 delta stream.
	id := info.ID
	for gi, gen := range gens {
		var buf bytes.Buffer
		sw, err := trace.NewStreamWriter(&buf, base.Name, base.POIs)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range gen {
			if err := sw.WriteUser(u); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/append?wait=1",
			"application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var grown serve.JobInfo
		code := resp.StatusCode
		decodeJSON(t, resp.Body, &grown)
		if code != http.StatusOK || grown.Status != serve.StatusDone {
			t.Fatalf("append generation %d: code=%d job=%+v", gi+1, code, grown)
		}
		if grown.ID == id {
			t.Fatalf("append generation %d kept the dataset ID", gi+1)
		}
		id = grown.ID
	}

	// The cold reference: a from-scratch validation of the manifest the
	// appends grew, exactly what geovalidate would compute.
	coldLog := filepath.Join(t.TempDir(), "cold.gso")
	cold, err := ValidateFileOpts(manifest, StreamOptions{Workers: 1, OutcomeLog: coldLog})
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		Result *StreamResult `json:"result"`
	}
	getJSON(t, ts.URL+"/v1/datasets/"+id, &doc)
	if doc.Result == nil {
		t.Fatal("grown dataset served no result")
	}
	if got, want := resultJSON(t, doc.Result), resultJSON(t, cold); !bytes.Equal(got, want) {
		t.Errorf("served result differs from cold validation:\nserved:\n%s\ncold:\n%s", got, want)
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/" + id + "/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("outcomes: code=%d err=%v", resp.StatusCode, err)
	}
	if !bytes.Equal(served, readFile(t, coldLog)) {
		t.Error("served outcome log differs from cold validation's log")
	}

	// Both generations must have been produced by the incremental path —
	// asserted by counter, not timing.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "geoserve_incremental_updates_total 2"; !strings.Contains(string(metrics), want) {
		t.Errorf("metrics missing %q — the service fell back to full revalidation:\n%s", want, metrics)
	}
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp.Body, v)
}

// decodeJSON decodes one JSON document and closes the body.
func decodeJSON(t *testing.T, body io.ReadCloser, v any) {
	t.Helper()
	defer body.Close()
	if err := json.NewDecoder(body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestValidationFingerprintPinned pins the default parameters' tag. It
// names the service's cache, outcome-log and checkpoint directories, so
// a change here orphans every persisted result.
func TestValidationFingerprintPinned(t *testing.T) {
	if got, want := validationFingerprint(StreamOptions{}), "3d4ebd42accd"; got != want {
		t.Fatalf("validationFingerprint(defaults) = %q, want %q", got, want)
	}
}
