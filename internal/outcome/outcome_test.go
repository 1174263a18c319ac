package outcome_test

// Round-trip, canonical-order, corruption and streaming-contract tests
// for the GSO1 outcome log. They live in an external test package so
// they can exercise the log against real synthetic datasets.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geosocial"
	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/outcome"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

// genRecords validates and classifies a small synthetic dataset and
// returns the per-user records in dataset order.
func genRecords(t *testing.T, seed uint64, scale float64) []*outcome.Record {
	t.Helper()
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(scale), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewValidator()
	outs, _, err := v.ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.ClassifyAll(outs, classify.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*outcome.Record, len(outs))
	for i := range outs {
		if recs[i], err = outcome.NewRecord(outs[i], cls[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// writeLog writes records to a fresh log file and returns its path.
func writeLog(t *testing.T, recs []*outcome.Record, name, file string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), file)
	w, err := outcome.Create(path, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// readAll decodes every record of a log.
func readAll(t *testing.T, path string) (string, []*outcome.Record) {
	t.Helper()
	lf, err := outcome.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	var recs []*outcome.Record
	for {
		rec, err := lf.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return lf.Name(), recs
}

func TestLogRoundTrip(t *testing.T) {
	recs := genRecords(t, 42, 0.03)
	if len(recs) < 3 {
		t.Fatalf("want several users, got %d", len(recs))
	}
	for _, file := range []string{"out.gso", "out.gso.gz"} {
		t.Run(file, func(t *testing.T) {
			path := writeLog(t, recs, "primary", file)
			name, got := readAll(t, path)
			if name != "primary" {
				t.Fatalf("name = %q", name)
			}
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, wrote %d", len(got), len(recs))
			}
			// Records come back in user-ID order regardless of write order;
			// the generator emits IDs in increasing order already.
			for i := range recs {
				if !reflect.DeepEqual(got[i], recs[i]) {
					t.Fatalf("record %d (user %d) did not round-trip:\n got %+v\nwant %+v",
						i, recs[i].UserID, got[i], recs[i])
				}
			}
		})
	}
}

// TestLogCanonicalOrder writes the same records in several insertion
// orders and expects byte-identical logs — the contract that makes
// outcome logs comparable across worker and shard counts.
func TestLogCanonicalOrder(t *testing.T) {
	recs := genRecords(t, 7, 0.03)
	ref, err := os.ReadFile(writeLog(t, recs, "primary", "ref.gso"))
	if err != nil {
		t.Fatal(err)
	}
	orders := map[string]func(i, n int) int{
		"reversed":   func(i, n int) int { return n - 1 - i },
		"interleave": func(i, n int) int { return (i*7 + 3) % n },
	}
	for oname, perm := range orders {
		t.Run(oname, func(t *testing.T) {
			n := len(recs)
			seen := make(map[int]bool, n)
			shuffled := make([]*outcome.Record, 0, n)
			for i := 0; i < n; i++ {
				j := perm(i, n)
				for seen[j] {
					j = (j + 1) % n
				}
				seen[j] = true
				shuffled = append(shuffled, recs[j])
			}
			got, err := os.ReadFile(writeLog(t, shuffled, "primary", "shuf.gso"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("log bytes differ for insertion order %q", oname)
			}
		})
	}
}

func TestLogDuplicateUserRejected(t *testing.T) {
	recs := genRecords(t, 42, 0.02)
	path := filepath.Join(t.TempDir(), "dup.gso")
	w, err := outcome.Create(path, "primary")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(recs[0]); err != nil {
		t.Fatal(err) // spooling cannot see the duplicate yet
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "duplicate user") {
		t.Fatalf("Close on duplicate user = %v, want duplicate-user error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected log must not be published (stat err %v)", err)
	}
}

func TestLogDiscardRemovesSpool(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.gso")
	w, err := outcome.Create(path, "primary")
	if err != nil {
		t.Fatal(err)
	}
	w.Discard()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Discard left files behind: %v", entries)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after Discard must error")
	}
}

// TestLogTruncationRejected cuts a valid log at every prefix length and
// expects every cut to surface as an error — a truncated log must never
// read as a silently smaller analysis input.
func TestLogTruncationRejected(t *testing.T) {
	recs := genRecords(t, 42, 0.02)
	data, err := os.ReadFile(writeLog(t, recs[:3], "primary", "trunc.gso"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := scanBytes(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
	if err := scanBytes(data); err != nil {
		t.Fatalf("full log failed: %v", err)
	}
}

// scanBytes decodes a log held in memory end to end.
func scanBytes(data []byte) error {
	rd, err := outcome.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := rd.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// TestLogCorruptHeaderRejected covers the header failure modes: bad
// magic, unsupported version, absurd sizes, and a feature-dimension
// mismatch.
func TestLogCorruptHeaderRejected(t *testing.T) {
	recs := genRecords(t, 42, 0.02)
	data, err := os.ReadFile(writeLog(t, recs[:2], "primary", "hdr.gso"))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), data...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"gsb-magic", mutate(func(b []byte) []byte { copy(b, "GSB1"); return b })},
		{"bad-version", mutate(func(b []byte) []byte { b[4] = 99; return b })},
		{"huge-name", mutate(func(b []byte) []byte {
			// Replace the name length with an absurd uvarint.
			return append(b[:5], 0xff, 0xff, 0xff, 0xff, 0x7f)
		})},
		{"empty", nil},
		{"magic-only", data[:4]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := scanBytes(c.data); err == nil {
				t.Fatal("corrupt header decoded without error")
			}
		})
	}

	// Feature-dim mismatch: rebuild the header with dim+1. The header is
	// magic(4) version(1) namelen(1) name(7) dim(1) kinds(1) for this
	// dataset, so the dim byte sits right after the name.
	dimOff := 4 + 1 + 1 + len("primary")
	bad := append([]byte(nil), data...)
	bad[dimOff]++
	if err := scanBytes(bad); err == nil || !strings.Contains(err.Error(), "features") {
		t.Fatalf("feature-dim mismatch = %v, want features error", err)
	}
}

// TestLogCorruptRecordRejected flips record bytes and expects decode or
// validation errors, never silent acceptance of skewed analysis inputs.
func TestLogCorruptRecordRejected(t *testing.T) {
	recs := genRecords(t, 42, 0.02)
	var some []*outcome.Record
	for _, r := range recs {
		if r.Checkins() > 0 {
			some = append(some, r)
		}
		if len(some) == 2 {
			break
		}
	}
	if len(some) < 2 {
		t.Skip("no users with checkins at this scale")
	}
	data, err := os.ReadFile(writeLog(t, some, "primary", "rec.gso"))
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single byte after the header must either fail decode
	// or still satisfy every record invariant (float payload bits can
	// flip freely); it must never panic or mis-frame the stream.
	headerLen := 4 + 1 + 1 + len("primary") + 2
	rejected := 0
	for off := headerLen; off < len(data); off++ {
		b := append([]byte(nil), data...)
		b[off] ^= 0xff
		if err := scanBytes(b); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no byte flip was ever rejected — framing checks are dead")
	}
}

// TestLogSummarizeMatchesValidation pins the log's self-check: the
// partition, taxonomy and truth score reassembled from records equal
// the aggregates of the validation that produced them.
func TestLogSummarizeMatchesValidation(t *testing.T) {
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.03), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewValidator()
	outs, part, err := v.ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.ClassifyAll(outs, classify.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sum.gso")
	w, err := outcome.Create(path, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	checkins := 0
	for i := range outs {
		checkins += len(outs[i].User.Checkins)
		rec, err := outcome.NewRecord(outs[i], cls[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sm, err := outcome.Summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Users != len(outs) || sm.Checkins != checkins {
		t.Fatalf("summary counts users=%d checkins=%d, want %d/%d", sm.Users, sm.Checkins, len(outs), checkins)
	}
	if sm.Partition != part {
		t.Fatalf("summary partition %+v != validation partition %+v", sm.Partition, part)
	}
	wantTax := make(map[string]int)
	for _, c := range cls {
		for _, k := range c.Kinds {
			wantTax[k.String()]++
		}
	}
	if !reflect.DeepEqual(sm.Taxonomy, wantTax) {
		t.Fatalf("summary taxonomy %v != %v", sm.Taxonomy, wantTax)
	}
	truth, err := core.ScoreAgainstTruth(outs)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Truth == nil || *sm.Truth != truth {
		t.Fatalf("summary truth %+v != %+v", sm.Truth, truth)
	}
}

// TestSinkMatchesAdd pins the streaming engine's per-user record path
// to the batch path: users validated one at a time (ValidateUserSpans,
// ClassifyUser, NewRecord) and written in reverse order — as an
// arbitrary merged arrival order would — produce the same log as
// ValidateDataset + ClassifyAll written in dataset order.
func TestSinkMatchesAdd(t *testing.T) {
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	db, err := ds.DB()
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewValidator()

	dir := t.TempDir()
	perUser := filepath.Join(dir, "per-user.gso")
	w, err := outcome.Create(perUser, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(ds.Users) - 1; i >= 0; i-- {
		o, err := v.ValidateUserSpans(ds.Users[i], db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := classify.ClassifyUser(o, classify.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := outcome.NewRecord(o, cl)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	outs, _, err := v.ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := classify.ClassifyAll(outs, classify.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*outcome.Record, len(outs))
	for i := range outs {
		if recs[i], err = outcome.NewRecord(outs[i], cls[i]); err != nil {
			t.Fatal(err)
		}
	}
	batch := writeLog(t, recs, ds.Name, "batch.gso")

	a, err := os.ReadFile(perUser)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("per-user log differs from batch log")
	}
}

// TestShardSinkMatchesSink pins the log through the facade engine: the
// same dataset validated as a 3-shard corpus (merged shard arrival
// order, 4 workers) writes a log byte-identical to the serial
// single-file run (canonical order erases the interleaving).
func TestShardSinkMatchesSink(t *testing.T) {
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.03), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := ds.SaveShards(t.TempDir(), trace.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	shardLog := filepath.Join(t.TempDir(), "shards.gso")
	if _, err := geosocial.ValidateFileOpts(manifest, geosocial.StreamOptions{Workers: 4, OutcomeLog: shardLog}); err != nil {
		t.Fatal(err)
	}

	// Reference: the single-file save of the same dataset (shard users
	// are E7-quantized by the binary codec, so the reference must read
	// them back from a binary file too).
	binPath := filepath.Join(t.TempDir(), "ds.bin.gz")
	if err := ds.SaveFile(binPath); err != nil {
		t.Fatal(err)
	}
	refLog := filepath.Join(t.TempDir(), "ref.gso")
	if _, err := geosocial.ValidateFileOpts(binPath, geosocial.StreamOptions{Workers: 1, OutcomeLog: refLog}); err != nil {
		t.Fatal(err)
	}

	a, err := os.ReadFile(shardLog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(refLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("3-shard log differs from single-file log")
	}
}

func TestOpenRejectsMissingAndForeign(t *testing.T) {
	if _, err := outcome.Open(filepath.Join(t.TempDir(), "nope.gso")); err == nil {
		t.Fatal("Open on a missing file must error")
	}
	p := filepath.Join(t.TempDir(), "foreign.gso")
	if err := os.WriteFile(p, []byte("GSB1not-an-outcome-log"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := outcome.Open(p); err == nil || !strings.Contains(err.Error(), "not an outcome log") {
		t.Fatalf("Open on foreign magic = %v", err)
	}
}

func TestEmptyLogRoundTrips(t *testing.T) {
	path := writeLog(t, nil, "empty", "empty.gso")
	name, recs := readAll(t, path)
	if name != "empty" || len(recs) != 0 {
		t.Fatalf("empty log: name=%q records=%d", name, len(recs))
	}
	sm, err := outcome.Summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Users != 0 || sm.Truth != nil {
		t.Fatalf("empty summary: %+v", sm)
	}
}

func TestNewRecordRejectsMismatchedClassification(t *testing.T) {
	ds, err := synth.Generate(synth.PrimaryConfig().Scale(0.02), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	v := core.NewValidator()
	outs, _, err := v.ValidateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	var withCheckins *core.UserOutcome
	for i := range outs {
		if len(outs[i].User.Checkins) > 0 {
			withCheckins = &outs[i]
			break
		}
	}
	if withCheckins == nil {
		t.Skip("no users with checkins")
	}
	if _, err := outcome.NewRecord(*withCheckins, nil); err == nil {
		t.Fatal("nil classification accepted")
	}
	if _, err := outcome.NewRecord(*withCheckins, &classify.Classification{}); err == nil {
		t.Fatal("short classification accepted")
	}
}
