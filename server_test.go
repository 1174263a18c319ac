package geosocial_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"geosocial"
	"geosocial/internal/trace"
)

// TestNewServerServesShardedCorpusFromSpool exercises the facade
// service entry point end to end at the library layer: a sharded
// corpus dropped into the spool is discovered by the watcher, validated
// through the shared streaming engine, and served with aggregates
// identical to ValidateFileOpts on the same manifest.
func TestNewServerServesShardedCorpusFromSpool(t *testing.T) {
	study, err := geosocial.GenerateStudy(geosocial.StudyConfig{Scale: 0.03, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spool := t.TempDir()
	manifest, err := study.Primary.SaveShards(spool, trace.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := geosocial.ValidateFileOpts(manifest, geosocial.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := geosocial.NewServer(geosocial.ServerOptions{
		SpoolDir:     spool,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Wait for the watcher to discover and validate the manifest.
	var id string
	deadline := time.Now().Add(30 * time.Second)
	for id == "" {
		resp, err := http.Get(ts.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Datasets []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			} `json:"datasets"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Datasets) == 1 && list.Datasets[0].Status == "done" {
			id = list.Datasets[0].ID
		} else if time.Now().After(deadline) {
			t.Fatalf("manifest never validated: %+v", list)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Result *geosocial.StreamResult `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Result == nil {
		t.Fatal("served document has no result")
	}
	gotJSON, _ := json.Marshal(doc.Result)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served sharded result differs from ValidateFileOpts:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if len(doc.Result.Shards) != 3 {
		t.Fatalf("served result has %d shard stats, want 3", len(doc.Result.Shards))
	}

	// The shard files themselves must not appear as standalone jobs.
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	var binFiles int
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".bin" || filepath.Ext(e.Name()) == ".gz" {
			binFiles++
		}
	}
	if binFiles == 0 {
		t.Fatal("test setup: no shard files in spool")
	}
	resp, err = http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Datasets []any `json:"datasets"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 {
		t.Fatalf("shard files leaked into the dataset list: %+v", list)
	}
}
