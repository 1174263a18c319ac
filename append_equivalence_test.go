package geosocial

// Acceptance tests for the live append path: a shard set appended to
// and updated incrementally must be byte-identical — StreamResult JSON
// and outcome log alike — to a cold full validation of the appended
// corpus, for any worker count and any append granularity.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"geosocial/internal/classify"
	"geosocial/internal/core"
	"geosocial/internal/outcome"
	"geosocial/internal/trace"
)

// cutUserAt splits one user's traces at cutT: everything strictly
// before stays in the first part, the rest becomes the second. A user
// with no activity at or after cutT is untouched (nil second part); one
// with nothing before has a nil first part.
func cutUserAt(u *trace.User, cutT int64) (before, after *trace.User) {
	gi := sort.Search(len(u.GPS), func(i int) bool { return u.GPS[i].T >= cutT })
	ci := sort.Search(len(u.Checkins), func(i int) bool { return u.Checkins[i].T >= cutT })
	if gi == len(u.GPS) && ci == len(u.Checkins) {
		return u, nil
	}
	if gi == 0 && ci == 0 {
		return nil, u
	}
	before = &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days, GPS: u.GPS[:gi], Checkins: u.Checkins[:ci]}
	after = &trace.User{ID: u.ID, Profile: u.Profile, Days: u.Days, GPS: u.GPS[gi:], Checkins: u.Checkins[ci:]}
	return before, after
}

func corpusMaxTime(ds *trace.Dataset) int64 {
	maxT := int64(math.MinInt64)
	for _, u := range ds.Users {
		if n := len(u.GPS); n > 0 && u.GPS[n-1].T > maxT {
			maxT = u.GPS[n-1].T
		}
		if n := len(u.Checkins); n > 0 && u.Checkins[n-1].T > maxT {
			maxT = u.Checkins[n-1].T
		}
	}
	return maxT
}

// splitAppendCorpus cuts the study's primary dataset into a base
// dataset plus one or more delta generations, per mode:
//
//   - "day": every user's final synthetic day is appended.
//   - "interleave": every user is cut at its GPS midpoint, so appended
//     data interleaves with the whole corpus timeline.
//   - "subset": only every 3rd user is cut; the rest must not be
//     revalidated by the incremental path.
//   - "twogen": two stacked generations — midpoint and three-quarter
//     cuts.
//
// In every mode, every 7th user is withheld from the base entirely and
// arrives brand-new in the last generation. touched lists the IDs an
// incremental update must revalidate, ascending.
func splitAppendCorpus(t *testing.T, mode string) (base *trace.Dataset, gens [][]*trace.User, touched []int) {
	t.Helper()
	full := getStudy(t).Primary
	maxT := corpusMaxTime(full)
	base = &trace.Dataset{Name: full.Name, POIs: full.POIs}
	nGens := 1
	if mode == "twogen" {
		nGens = 2
	}
	gens = make([][]*trace.User, nGens)
	for i, u := range full.Users {
		if i%7 == 3 { // brand-new: whole user in the last generation
			gens[nGens-1] = append(gens[nGens-1], u)
			touched = append(touched, u.ID)
			continue
		}
		var cuts []int64
		switch mode {
		case "day":
			cuts = []int64{maxT - 86400}
		case "interleave":
			cuts = []int64{u.GPS[len(u.GPS)/2].T}
		case "subset":
			if i%3 != 0 {
				base.Users = append(base.Users, u)
				continue
			}
			cuts = []int64{u.GPS[len(u.GPS)/2].T}
		case "twogen":
			cuts = []int64{u.GPS[len(u.GPS)/2].T, u.GPS[3*len(u.GPS)/4].T}
		default:
			t.Fatalf("unknown mode %q", mode)
		}
		// Peel the user into len(cuts)+1 pieces: parts[0] goes to the
		// base, parts[k] to generation k-1. Any piece may come up empty.
		parts := make([]*trace.User, nGens+1)
		rest := u
		for gi, c := range cuts {
			if rest == nil {
				break
			}
			parts[gi], rest = cutUserAt(rest, c)
		}
		parts[nGens] = rest
		if parts[0] != nil {
			base.Users = append(base.Users, parts[0])
		}
		was := false
		for k := 1; k <= nGens; k++ {
			if parts[k] != nil {
				gens[k-1] = append(gens[k-1], parts[k])
				was = true
			}
		}
		if was || parts[0] == nil {
			touched = append(touched, u.ID)
		}
	}
	sort.Ints(touched)
	for gi, g := range gens {
		if len(g) == 0 {
			t.Fatalf("mode %q: generation %d is empty", mode, gi)
		}
	}
	if len(base.Users) == 0 {
		t.Fatalf("mode %q: base corpus is empty", mode)
	}
	return base, gens, touched
}

// applyAppend appends one generation of delta users to the shard set.
func applyAppend(t *testing.T, manifest string, users []*trace.User) {
	t.Helper()
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if err := aw.WriteUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
}

func resultJSON(t *testing.T, res *StreamResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteIndentedJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAppendEquivalence is the tentpole acceptance contract: for every
// append granularity, an appended-then-updated run — gen by gen and as
// one multi-generation jump — produces a StreamResult JSON document and
// an outcome log byte-identical to a cold full validation of the
// appended corpus, for worker counts {1, 8}; and the cold generational
// validation itself matches the unsplit single-file corpus.
func TestAppendEquivalence(t *testing.T) {
	// The unsplit reference: the whole primary corpus as one file.
	full := getStudy(t).Primary
	refDir := t.TempDir()
	refPath := filepath.Join(refDir, "full.bin")
	if err := full.SaveFile(refPath); err != nil {
		t.Fatal(err)
	}
	refLog := filepath.Join(refDir, "full.gso")
	ref, err := ValidateFileOpts(refPath, StreamOptions{Workers: 1, OutcomeLog: refLog})
	if err != nil {
		t.Fatal(err)
	}
	refLogBytes := readFile(t, refLog)

	for _, mode := range []string{"day", "interleave", "subset", "twogen"} {
		t.Run(mode, func(t *testing.T) {
			base, gens, _ := splitAppendCorpus(t, mode)
			dir := t.TempDir()
			manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			prevLog := filepath.Join(dir, "gen0.gso")
			prev, err := ValidateFileOpts(manifest, StreamOptions{Workers: 1, OutcomeLog: prevLog})
			if err != nil {
				t.Fatal(err)
			}

			// Append and update generation by generation.
			seqRes, seqLog := prev, prevLog
			for gi, gen := range gens {
				applyAppend(t, manifest, gen)
				log := filepath.Join(dir, fmt.Sprintf("seq-%d.gso", gi))
				seqRes, err = UpdateValidation(manifest, seqRes, seqLog, StreamOptions{Workers: 1, OutcomeLog: log})
				if err != nil {
					t.Fatal(err)
				}
				seqLog = log
			}
			seqJSON, seqLogBytes := resultJSON(t, seqRes), readFile(t, seqLog)

			var lastCold *StreamResult
			for _, workers := range []int{1, 8} {
				coldLog := filepath.Join(dir, fmt.Sprintf("cold-%d.gso", workers))
				cold, err := ValidateFileOpts(manifest, StreamOptions{Workers: workers, OutcomeLog: coldLog})
				if err != nil {
					t.Fatal(err)
				}
				lastCold = cold
				coldJSON := resultJSON(t, cold)
				if !bytes.Equal(coldJSON, seqJSON) {
					t.Fatalf("workers=%d: cold JSON differs from sequential update:\ncold:\n%s\nupdate:\n%s",
						workers, coldJSON, seqJSON)
				}
				if !bytes.Equal(readFile(t, coldLog), seqLogBytes) {
					t.Fatalf("workers=%d: cold outcome log differs from sequential update", workers)
				}

				// One-shot multi-generation update from the gen-0 result.
				osLog := filepath.Join(dir, fmt.Sprintf("oneshot-%d.gso", workers))
				oneshot, err := UpdateValidation(manifest, prev, prevLog, StreamOptions{Workers: workers, OutcomeLog: osLog})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(resultJSON(t, oneshot), coldJSON) {
					t.Fatalf("workers=%d: one-shot update JSON differs from cold", workers)
				}
				if !bytes.Equal(readFile(t, osLog), seqLogBytes) {
					t.Fatalf("workers=%d: one-shot update outcome log differs from cold", workers)
				}
			}

			// The cold generational aggregate equals the unsplit corpus
			// (shard layout and generation are provenance, not content).
			agg := *lastCold
			agg.Shards, agg.Generation = nil, 0
			if !reflect.DeepEqual(&agg, ref) {
				t.Errorf("cold generational aggregate differs from unsplit corpus:\n got %+v\nwant %+v", &agg, ref)
			}
			// And the outcome log is the unsplit corpus's, byte for byte.
			if !bytes.Equal(seqLogBytes, refLogBytes) {
				t.Error("updated outcome log differs from the unsplit corpus's log")
			}
		})
	}
}

// TestIncrementalUpdateRevalidatesOnlyTouched pins the N-of-M contract
// by counting, not timing: the incremental path validates exactly the
// touched users, while a cold run validates all of them.
func TestIncrementalUpdateRevalidatesOnlyTouched(t *testing.T) {
	full := getStudy(t).Primary
	base, gens, touched := splitAppendCorpus(t, "subset")
	dir := t.TempDir()
	manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	prevLog := filepath.Join(dir, "gen0.gso")
	prev, err := ValidateFileOpts(manifest, StreamOptions{Workers: 1, OutcomeLog: prevLog})
	if err != nil {
		t.Fatal(err)
	}
	applyAppend(t, manifest, gens[0])

	var got []int
	updLog := filepath.Join(dir, "upd.gso")
	if _, err := UpdateValidation(manifest, prev, prevLog, StreamOptions{
		Workers:    1,
		OutcomeLog: updLog,
		keep:       func(o core.UserOutcome, _ *classify.Classification) { got = append(got, o.User.ID) },
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, touched) {
		t.Errorf("incremental run validated %v, want exactly the touched set %v", got, touched)
	}
	if len(got) >= len(full.Users) {
		t.Errorf("incremental run validated %d of %d users — not incremental", len(got), len(full.Users))
	}

	var all []int
	if _, err := ValidateFileOpts(manifest, StreamOptions{
		Workers: 1,
		keep:    func(o core.UserOutcome, _ *classify.Classification) { all = append(all, o.User.ID) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(all) != len(full.Users) {
		t.Errorf("cold run validated %d users, corpus has %d", len(all), len(full.Users))
	}
}

// TestUpdateValidationErrors covers the guard rails: stale manifests,
// mismatched identity, and a previous log missing a touched user.
func TestUpdateValidationErrors(t *testing.T) {
	base, gens, touched := splitAppendCorpus(t, "subset")
	dir := t.TempDir()
	manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	prevLog := filepath.Join(dir, "gen0.gso")
	prev, err := ValidateFileOpts(manifest, StreamOptions{Workers: 1, OutcomeLog: prevLog})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UpdateValidation(manifest, prev, prevLog, StreamOptions{}); err == nil ||
		!strings.Contains(err.Error(), "not newer") {
		t.Errorf("update against un-appended manifest: %v", err)
	}
	if _, err := UpdateValidation(manifest, prev, "", StreamOptions{}); err == nil ||
		!strings.Contains(err.Error(), "outcome log required") {
		t.Errorf("update without previous log: %v", err)
	}

	applyAppend(t, manifest, gens[0])

	bad := *prev
	bad.Name = "other"
	if _, err := UpdateValidation(manifest, &bad, prevLog, StreamOptions{}); err == nil ||
		!strings.Contains(err.Error(), "previous result") {
		t.Errorf("mismatched dataset name: %v", err)
	}
	bad = *prev
	bad.Shards = append([]ShardStat(nil), prev.Shards...)
	bad.Shards[0].Path = "not-a-shard.gsb"
	if _, err := UpdateValidation(manifest, &bad, prevLog, StreamOptions{}); err == nil ||
		!strings.Contains(err.Error(), "previous result has") {
		t.Errorf("mismatched shard prefix: %v", err)
	}

	// A previous log missing a touched existing user is an error, never
	// a silently wrong subtraction. (Brand-new users are legitimately
	// absent, so drop a record of a cut — existing — user.)
	victim := -1
	for _, id := range touched {
		for _, u := range base.Users {
			if u.ID == id {
				victim = id
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no touched existing user in scenario")
	}
	holed := filepath.Join(dir, "holed.gso")
	w, err := outcome.Create(holed, prev.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := outcome.Scan(prevLog, func(rec *outcome.Record) error {
		if rec.UserID == victim {
			return nil
		}
		return w.Write(rec)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateValidation(manifest, prev, holed, StreamOptions{Workers: 1}); err == nil ||
		!strings.Contains(err.Error(), "no record for touched user") {
		t.Errorf("holed previous log: %v", err)
	}
}

// corruptFrames rewrites the shard at path with the last byte of every
// frame of the given users turned into a varint continuation byte, so
// the frame keeps its length and its user ID but fails to decode. hdr
// is the shard's stream header.
func corruptFrames(t *testing.T, path string, hdr []byte, ids map[int]bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compressed := strings.HasSuffix(path, ".gz")
	if compressed {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.HasPrefix(raw, hdr) {
		t.Fatalf("%s does not start with the dataset header", path)
	}
	for pos := len(hdr); ; {
		n, k := binary.Uvarint(raw[pos:])
		if k <= 0 {
			t.Fatalf("%s: bad frame length at %d", path, pos)
		}
		if n == 0 {
			break
		}
		frame := raw[pos+k : pos+k+int(n)]
		if id, _ := binary.Varint(frame); ids[int(id)] {
			frame[len(frame)-1] |= 0x80
		}
		pos += k + int(n)
	}
	if compressed {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		raw = buf.Bytes()
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateCorruptTouchedFrames: the fold pass decodes the touched
// users' base frames on the worker pool. A corrupt frame must fail the
// update with the error its shard reader reports for it, and with two
// corrupt users the error must be the same for every worker count (the
// lower ID's: users fold in ascending ID order), mapped or gzip shards.
func TestUpdateCorruptTouchedFrames(t *testing.T) {
	base, gens, touched := splitAppendCorpus(t, "subset")
	inBase := make(map[int]bool, len(base.Users))
	for _, u := range base.Users {
		inBase[u.ID] = true
	}
	var victims []int // touched users with a base frame, ascending
	for _, id := range touched {
		if inBase[id] {
			victims = append(victims, id)
		}
	}
	if len(victims) < 2 {
		t.Fatal("scenario has fewer than two touched existing users")
	}
	lo, hi := victims[0], victims[len(victims)-1]
	var hdrBuf bytes.Buffer
	if err := (&trace.Dataset{Name: base.Name, POIs: base.POIs}).WriteBinary(&hdrBuf); err != nil {
		t.Fatal(err)
	}
	hdr := hdrBuf.Bytes()[:hdrBuf.Len()-2] // drop the sentinel and the zero user count

	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 2, Compress: compress})
			if err != nil {
				t.Fatal(err)
			}
			prevLog := filepath.Join(dir, "gen0.gso")
			prev, err := ValidateFileOpts(manifest, StreamOptions{Workers: 1, OutcomeLog: prevLog})
			if err != nil {
				t.Fatal(err)
			}
			applyAppend(t, manifest, gens[0])
			ss, err := trace.OpenShardSet(manifest)
			if err != nil {
				t.Fatal(err)
			}
			// shardErr is the error the serial reader reports for the
			// set's first corrupt frame.
			shardErr := func() string {
				for i := range prev.Shards {
					r, err := ss.OpenShard(i)
					if err != nil {
						t.Fatal(err)
					}
					for err == nil {
						_, err = r.Next()
					}
					r.Close()
					if err != io.EOF {
						return err.Error()
					}
				}
				t.Fatal("no corrupt frame")
				return ""
			}
			updateErrs := func() []string {
				var out []string
				for _, workers := range []int{1, 2, 8} {
					_, err := UpdateValidation(manifest, prev, prevLog, StreamOptions{Workers: workers})
					if err == nil {
						t.Fatalf("workers=%d: update over a corrupt touched frame succeeded", workers)
					}
					out = append(out, err.Error())
				}
				return out
			}
			corrupt := func(ids map[int]bool) {
				for i := range prev.Shards {
					corruptFrames(t, filepath.Join(dir, ss.Manifest.Shards[i].File), hdr, ids)
				}
			}

			corrupt(map[int]bool{lo: true})
			want := "geosocial: " + shardErr()
			for _, got := range updateErrs() {
				if got != want {
					t.Fatalf("one corrupt frame: error %q, want %q", got, want)
				}
			}
			corrupt(map[int]bool{hi: true})
			for _, got := range updateErrs() {
				if got != want {
					t.Fatalf("two corrupt frames: error %q, want the lower ID's %q", got, want)
				}
			}
		})
	}
}
