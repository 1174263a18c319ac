package trace

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geosocial/internal/poi"
)

// seamFrame builds one frame of user id with fixes and checkins at the
// given times (nil: none).
func seamFrame(id int, gps, cks []int64) *User {
	u := &User{ID: id, Days: 1}
	for _, t := range gps {
		u.GPS = append(u.GPS, GPSPoint{T: t, Loc: base})
	}
	for _, t := range cks {
		u.Checkins = append(u.Checkins, Checkin{T: t, POIName: "A", Category: poi.Food, Loc: base, Truth: LabelHonest})
	}
	return u
}

// dirDigest maps every file in dir to the SHA-256 of its bytes.
func dirDigest(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][32]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(raw)
	}
	return out
}

// TestSeamRule drives every fold chain through both users of the seam
// rule: FoldUser on the decoded frames, and AppendWriter.Close, which
// checks the last generation against spans of the frames already on
// disk. Both must agree — same acceptance, same error text (Close adds
// its "trace: append: " prefix) — and a rejected append must leave every
// file of the set byte-identical.
func TestSeamRule(t *testing.T) {
	const id = 5
	cases := []struct {
		name  string
		chain []*User // base frame, then the delta of each generation
		want  string  // FoldUser's error, "" when the chain folds
	}{
		{"gps after tail", []*User{
			seamFrame(id, []int64{0, 60, 120}, []int64{30}),
			seamFrame(id, []int64{180}, []int64{200}),
		}, ""},
		{"gps at tail", []*User{
			seamFrame(id, []int64{0, 60, 120}, nil),
			seamFrame(id, []int64{120, 180}, nil),
		}, ""},
		{"gps before tail", []*User{
			seamFrame(id, []int64{0, 60, 120}, []int64{30}),
			seamFrame(id, []int64{60}, []int64{200}),
		}, "trace: fold user 5: delta GPS starts at 60, before trace end 120"},
		{"checkins before tail", []*User{
			seamFrame(id, []int64{0, 60}, []int64{30, 90}),
			seamFrame(id, []int64{120}, []int64{60}),
		}, "trace: fold user 5: delta checkins start at 60, before trace end 90"},
		{"gps reported before checkins", []*User{
			seamFrame(id, []int64{0, 120}, []int64{30, 90}),
			seamFrame(id, []int64{60}, []int64{60}),
		}, "trace: fold user 5: delta GPS starts at 60, before trace end 120"},
		{"base without gps", []*User{
			seamFrame(id, nil, []int64{30}),
			seamFrame(id, []int64{0}, []int64{40}),
		}, ""},
		{"base without checkins", []*User{
			seamFrame(id, []int64{0, 60}, nil),
			seamFrame(id, []int64{90}, []int64{10}),
		}, ""},
		{"empty delta", []*User{
			seamFrame(id, []int64{0, 60}, []int64{30}),
			seamFrame(id, nil, nil),
		}, ""},
		{"gps tail from an earlier generation", []*User{
			seamFrame(id, nil, []int64{30}),
			seamFrame(id, []int64{100, 200}, []int64{40}),
			seamFrame(id, []int64{150}, nil),
		}, "trace: fold user 5: delta GPS starts at 150, before trace end 200"},
		{"checkin tail skips a generation without checkins", []*User{
			seamFrame(id, []int64{0}, []int64{30, 90}),
			seamFrame(id, []int64{100}, nil),
			seamFrame(id, []int64{110}, []int64{60}),
		}, "trace: fold user 5: delta checkins start at 60, before trace end 90"},
		{"three generations", []*User{
			seamFrame(id, []int64{0, 60}, []int64{30}),
			seamFrame(id, []int64{60, 120}, []int64{100}),
			seamFrame(id, nil, []int64{100, 130}),
			seamFrame(id, []int64{180}, []int64{190}),
		}, ""},
		{"fourth generation before the third", []*User{
			seamFrame(id, []int64{0, 60}, []int64{30}),
			seamFrame(id, []int64{60, 120}, []int64{100}),
			seamFrame(id, []int64{300}, []int64{130}),
			seamFrame(id, []int64{240}, []int64{190}),
		}, "trace: fold user 5: delta GPS starts at 240, before trace end 300"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			folded, err := FoldUser(tc.chain[0], tc.chain[1:])
			if got := errText(err); got != tc.want {
				t.Fatalf("FoldUser: error %q, want %q", got, tc.want)
			}
			if err == nil {
				var gps, cks int
				for _, fr := range tc.chain {
					gps, cks = gps+len(fr.GPS), cks+len(fr.Checkins)
				}
				if len(folded.GPS) != gps || len(folded.Checkins) != cks {
					t.Fatalf("folded %d fixes, %d checkins; want %d, %d", len(folded.GPS), len(folded.Checkins), gps, cks)
				}
			}

			// The same chain on disk: the base set with one other user,
			// every generation but the last appended, then the last.
			ds := &Dataset{Name: "seam", POIs: testDataset().POIs, Users: []*User{tc.chain[0], seamFrame(id+1, []int64{0}, nil)}}
			dir := t.TempDir()
			manifest, err := ds.SaveShards(dir, ShardOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			last := len(tc.chain) - 1
			for _, d := range tc.chain[1:last] {
				if err := appendOne(manifest, d); err != nil {
					t.Fatalf("earlier generation: %v", err)
				}
			}
			before := dirDigest(t, dir)
			err = appendOne(manifest, tc.chain[last])
			want := ""
			if tc.want != "" {
				want = "trace: append: " + tc.want
			}
			if got := errText(err); got != want {
				t.Fatalf("AppendWriter.Close: error %q, want %q", got, want)
			}
			if err != nil && !reflect.DeepEqual(dirDigest(t, dir), before) {
				t.Fatal("rejected append changed the files of the set")
			}
		})
	}

	// A delta frame of another user cannot reach Close's chains (frames
	// are collected by ID), so the ID test is compared on the rule
	// itself: Close runs checkSeams on spanOf each frame.
	b, d := seamFrame(id, []int64{0}, nil), seamFrame(id+1, []int64{60}, nil)
	_, foldErr := FoldUser(b, []*User{d})
	ruleErr := checkSeams(spanOf(b), []frameSpan{spanOf(d)})
	if want := "trace: fold user 5: delta frame for user 6"; errText(foldErr) != want || errText(ruleErr) != want {
		t.Fatalf("ID mismatch: FoldUser %q, checkSeams %q, want %q", errText(foldErr), errText(ruleErr), want)
	}
}

// appendOne appends one generation holding the single frame u.
func appendOne(manifest string, u *User) error {
	aw, err := OpenAppend(manifest)
	if err != nil {
		return err
	}
	if err := aw.WriteUser(u); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return aw.Close()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
