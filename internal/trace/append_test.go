package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"geosocial/internal/geo"
	"geosocial/internal/trace"
)

// splitUser cuts one user into a base prefix and a delta suffix at the
// midpoint of each trace, the shape of a per-user append. The delta is
// nil when there is nothing to move.
func splitUser(u *trace.User) (*trace.User, *trace.User) {
	mg, mc := len(u.GPS)/2, len(u.Checkins)/2
	if mg == len(u.GPS) && mc == len(u.Checkins) {
		return u, nil
	}
	base := &trace.User{
		ID: u.ID, Profile: u.Profile, Days: u.Days,
		GPS: u.GPS[:mg], Checkins: u.Checkins[:mc],
	}
	delta := &trace.User{
		ID: u.ID, Profile: u.Profile, Days: u.Days,
		GPS: u.GPS[mg:], Checkins: u.Checkins[mc:],
	}
	return base, delta
}

// splitDataset splits every user, returning the base dataset and the
// delta users.
func splitDataset(ds *trace.Dataset) (*trace.Dataset, []*trace.User) {
	base := &trace.Dataset{Name: ds.Name, POIs: ds.POIs}
	var deltas []*trace.User
	for _, u := range ds.Users {
		b, d := splitUser(u)
		base.Users = append(base.Users, b)
		if d != nil {
			deltas = append(deltas, d)
		}
	}
	return base, deltas
}

// newUserAfter builds a brand-new user whose trace starts after t0.
func newUserAfter(id int, t0 int64) *trace.User {
	loc := geo.LatLon{Lat: 34.42, Lon: -119.69}
	u := &trace.User{ID: id, Days: 1, Profile: trace.Profile{Friends: 2}}
	for i := int64(0); i < 12; i++ {
		u.GPS = append(u.GPS, trace.GPSPoint{T: t0 + i*60, Loc: loc})
	}
	return u
}

// onGridUser round-trips a hand-built user through the binary codec so
// its coordinates sit on the E7 grid and compare exactly with decoded
// shard content.
func onGridUser(t *testing.T, full *trace.Dataset, u *trace.User) *trace.User {
	t.Helper()
	ds := &trace.Dataset{Name: full.Name, POIs: full.POIs, Users: []*trace.User{u}}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	rt, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rt.Users[0]
}

// maxTime returns the latest timestamp in the dataset, so appended
// users can start after everything else.
func maxTime(ds *trace.Dataset) int64 {
	var t int64
	for _, u := range ds.Users {
		if n := len(u.GPS); n > 0 && u.GPS[n-1].T > t {
			t = u.GPS[n-1].T
		}
		if n := len(u.Checkins); n > 0 && u.Checkins[n-1].T > t {
			t = u.Checkins[n-1].T
		}
	}
	return t
}

// appendDeltas runs one AppendWriter session over the manifest.
func appendDeltas(t *testing.T, manifest string, deltas []*trace.User) {
	t.Helper()
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if err := aw.WriteUser(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendFoldRoundTrip: split a corpus into base + per-user deltas,
// append the deltas plus a brand-new user, and verify the folded set
// decodes to exactly the original users.
func TestAppendFoldRoundTrip(t *testing.T) {
	full := genShardDS(t, 0.05, 23)
	base, deltas := splitDataset(full)
	newID := maxUserID(full) + 1
	fresh := onGridUser(t, full, newUserAfter(newID, maxTime(full)+3600))

	dir := t.TempDir()
	manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	prevRaw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	appendDeltas(t, manifest, append(append([]*trace.User(nil), deltas...), fresh))

	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m := ss.Manifest
	if m.Generation != 1 {
		t.Fatalf("generation %d, want 1", m.Generation)
	}
	if m.Users != len(full.Users)+1 {
		t.Fatalf("manifest users %d, want %d", m.Users, len(full.Users)+1)
	}
	if m.Supersedes == "" {
		t.Fatal("manifest does not record the superseded manifest checksum")
	}
	last := m.Shards[len(m.Shards)-1]
	if !last.Delta || last.Generation != 1 || last.NewUsers != 1 {
		t.Fatalf("delta shard info %+v", last)
	}
	if last.Users != len(deltas)+1 {
		t.Fatalf("delta shard frames %d, want %d", last.Users, len(deltas)+1)
	}

	ds2, err := trace.MergeSets(ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds2.Len() != len(deltas)+1 {
		t.Fatalf("delta set has %d users, want %d", ds2.Len(), len(deltas)+1)
	}

	want := make(map[int]*trace.User, len(full.Users))
	for _, u := range full.Users {
		want[u.ID] = u
	}
	folded := 0
	for i, info := range m.Shards {
		if info.Delta {
			continue
		}
		r, err := ss.OpenShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for {
			u, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := ds2.Fold(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[u.ID]) {
				t.Fatalf("user %d differs after folding", u.ID)
			}
			folded++
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if folded != len(full.Users) {
		t.Fatalf("folded %d users, want %d", folded, len(full.Users))
	}
	gotNew, err := ds2.FoldNew(newID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotNew, fresh) {
		t.Fatal("new user differs after folding")
	}
	if h := ds2.Home(newID); h != len(m.Shards)-1 {
		t.Fatalf("new user home shard %d, want the delta shard", h)
	}

	// The superseded checksum is the hash of the previous manifest's
	// exact bytes — the audit chain back to generation 0.
	if want := fmt.Sprintf("sha256:%x", sha256.Sum256(prevRaw)); m.Supersedes != want {
		t.Fatalf("supersedes %s, want %s", m.Supersedes, want)
	}
}

// TestAppendSecondGeneration: a second append stacks cleanly and folds
// both deltas in order.
func TestAppendSecondGeneration(t *testing.T) {
	full := genShardDS(t, 0.03, 31)
	base, deltas := splitDataset(full)
	// Split each delta again: half goes in generation 1, half in 2.
	var gen1, gen2 []*trace.User
	for _, d := range deltas {
		a, b := splitUser(d)
		gen1 = append(gen1, a)
		if b != nil {
			gen2 = append(gen2, b)
		}
	}
	if len(gen2) == 0 {
		t.Skip("no second-generation deltas at this scale")
	}

	dir := t.TempDir()
	manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	appendDeltas(t, manifest, gen1)
	appendDeltas(t, manifest, gen2)

	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Manifest.Generation != 2 {
		t.Fatalf("generation %d, want 2", ss.Manifest.Generation)
	}
	ds2, err := trace.MergeSets(ss, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]*trace.User, len(full.Users))
	for _, u := range full.Users {
		want[u.ID] = u
	}
	for i, info := range ss.Manifest.Shards {
		if info.Delta {
			continue
		}
		r, err := ss.OpenShard(i)
		if err != nil {
			t.Fatal(err)
		}
		for {
			u, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := ds2.Fold(u)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[u.ID]) {
				t.Fatalf("user %d differs after two-generation fold", u.ID)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendDeterministic: the same append produces byte-identical
// delta shards and manifests.
func TestAppendDeterministic(t *testing.T) {
	full := genShardDS(t, 0.03, 41)
	base, deltas := splitDataset(full)
	var files [2][2][]byte // run -> {delta shard, manifest}
	for run := 0; run < 2; run++ {
		dir := t.TempDir()
		manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		appendDeltas(t, manifest, deltas)
		ss, err := trace.OpenShardSet(manifest)
		if err != nil {
			t.Fatal(err)
		}
		delta := ss.Manifest.Shards[len(ss.Manifest.Shards)-1]
		if files[run][0], err = os.ReadFile(filepath.Join(dir, delta.File)); err != nil {
			t.Fatal(err)
		}
		if files[run][1], err = os.ReadFile(manifest); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0][0], files[1][0]) {
		t.Fatal("delta shard bytes differ between identical appends")
	}
	if !bytes.Equal(files[0][1], files[1][1]) {
		t.Fatal("manifest bytes differ between identical appends")
	}
}

// TestAppendRejectsSeamViolation: a delta that starts before the user's
// existing trace end fails Close and leaves the set untouched.
func TestAppendRejectsSeamViolation(t *testing.T) {
	full := genShardDS(t, 0.03, 43)
	dir := t.TempDir()
	manifest, err := full.SaveShards(dir, trace.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	victim := full.Users[0]
	if len(victim.GPS) < 2 {
		t.Skip("victim too small")
	}
	bad := &trace.User{
		ID: victim.ID, Profile: victim.Profile, Days: victim.Days,
		GPS: victim.GPS[:1], // starts at the trace start, before its end
	}
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.WriteUser(bad); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err == nil {
		t.Fatal("seam-violating append accepted")
	}
	after, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed append mutated the manifest")
	}
}

func TestAppendRejectsDuplicateAndEmpty(t *testing.T) {
	full := genShardDS(t, 0.03, 47)
	dir := t.TempDir()
	manifest, err := full.SaveShards(dir, trace.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err == nil {
		t.Fatal("empty append accepted")
	}

	aw, err = trace.OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	u := newUserAfter(maxUserID(full)+1, maxTime(full)+3600)
	if err := aw.WriteUser(u); err != nil {
		t.Fatal(err)
	}
	if err := aw.WriteUser(u); err == nil {
		t.Fatal("duplicate user in one generation accepted")
	}
}

// TestConcurrentAppendSessionsExactlyOneWins: two AppendWriter sessions
// opened at the same generation race their Close. Both target the same
// delta shard name, so exactly one may publish; the loser must fail —
// the shard is linked into place, never renamed over — and the winner's
// published data must survive intact.
func TestConcurrentAppendSessionsExactlyOneWins(t *testing.T) {
	full := genShardDS(t, 0.03, 61)
	dir := t.TempDir()
	manifest, err := full.SaveShards(dir, trace.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t0 := maxTime(full) + 3600
	newID := maxUserID(full) + 1

	writers := make([]*trace.AppendWriter, 2)
	for i := range writers {
		aw, err := trace.OpenAppend(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if err := aw.WriteUser(onGridUser(t, full, newUserAfter(newID+i, t0))); err != nil {
			t.Fatal(err)
		}
		writers[i] = aw
	}

	errs := make([]error, len(writers))
	var wg sync.WaitGroup
	for i, aw := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = aw.Close()
		}()
	}
	wg.Wait()

	winner := -1
	for i, err := range errs {
		if err == nil {
			if winner >= 0 {
				t.Fatalf("both racing sessions published generation 1")
			}
			winner = i
		}
	}
	if winner < 0 {
		t.Fatalf("both racing sessions failed: %v", errs)
	}

	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Manifest.Generation != 1 {
		t.Fatalf("generation %d, want 1", ss.Manifest.Generation)
	}
	if ss.Manifest.Users != len(full.Users)+1 {
		t.Fatalf("manifest users %d, want %d", ss.Manifest.Users, len(full.Users)+1)
	}
	ds2, err := trace.MergeSets(ss, 0)
	if err != nil {
		t.Fatalf("winner's delta shard does not decode: %v", err)
	}
	if ds2.Len() != 1 || ds2.IDs()[0] != newID+winner {
		t.Fatalf("delta users %v, want exactly [%d]", ds2.IDs(), newID+winner)
	}
}

func maxUserID(ds *trace.Dataset) int {
	id := 0
	for _, u := range ds.Users {
		if u.ID > id {
			id = u.ID
		}
	}
	return id
}

// TestAppendStreamRejectsMismatch: the wire form refuses a stream whose
// header names another dataset.
func TestAppendStreamRejectsMismatch(t *testing.T) {
	full := genShardDS(t, 0.03, 53)
	dir := t.TempDir()
	manifest, err := full.SaveShards(dir, trace.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := trace.OpenAppend(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := trace.NewStreamWriter(&buf, "some-other-dataset", full.POIs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteUser(newUserAfter(maxUserID(full)+1, maxTime(full)+3600)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := aw.AppendStream(&buf); err == nil {
		t.Fatal("stream for another dataset accepted")
	}
}

// TestDeltaShardTruncation: a delta shard cut short at any byte must
// fail to decode — the GSB1 sentinel/trailer discipline makes
// truncation detectable everywhere. The cuts are those that reach
// different code: every header byte, every byte of each frame's length
// prefix, each frame's first and last payload byte, and every sentinel
// and trailer byte. A cut anywhere else inside a payload takes the
// same short-read branch as its first and last bytes.
func TestDeltaShardTruncation(t *testing.T) {
	full := genShardDS(t, 0.02, 59)
	base, deltas := splitDataset(full)
	if len(deltas) == 0 {
		t.Skip("no deltas at this scale")
	}
	dir := t.TempDir()
	manifest, err := base.SaveShards(dir, trace.ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendDeltas(t, manifest, deltas[:2])

	ss, err := trace.OpenShardSet(manifest)
	if err != nil {
		t.Fatal(err)
	}
	delta := ss.Manifest.Shards[len(ss.Manifest.Shards)-1]
	raw, err := os.ReadFile(filepath.Join(dir, delta.File))
	if err != nil {
		t.Fatal(err)
	}

	decode := func(b []byte) error {
		sr, err := trace.NewStreamReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}
	if err := decode(raw); err != nil {
		t.Fatalf("full delta shard failed to decode: %v", err)
	}

	// The header is what an empty stream with the same name and table
	// holds before its sentinel and zero count.
	sr, err := trace.NewStreamReaderBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	sw, err := trace.NewStreamWriter(&empty, sr.Name(), sr.POIs())
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	hdr := empty.Bytes()[:empty.Len()-2]
	if !bytes.HasPrefix(raw, hdr) {
		t.Fatal("delta shard does not start with its header")
	}
	var cuts []int
	for n := 0; n < len(hdr); n++ {
		cuts = append(cuts, n)
	}
	pos, frames := len(hdr), 0
	for {
		size, k := binary.Uvarint(raw[pos:])
		if k <= 0 {
			t.Fatalf("bad frame length prefix at offset %d", pos)
		}
		if size == 0 { // the sentinel, then the trailer
			for n := pos; n < len(raw); n++ {
				cuts = append(cuts, n)
			}
			break
		}
		for n := pos; n < pos+k; n++ {
			cuts = append(cuts, n)
		}
		cuts = append(cuts, pos+k, pos+k+int(size)-1)
		pos += k + int(size)
		frames++
	}
	if frames != delta.Users {
		t.Fatalf("walked %d frames, manifest says %d", frames, delta.Users)
	}
	for _, n := range cuts {
		if decode(raw[:n]) == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(raw))
		}
	}
}
