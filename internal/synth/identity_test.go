// The hashes were taken on amd64 at the default GOAMD64 (v1). Later
// microarchitecture levels and other targets may fuse multiply-adds,
// which moves the last bits of generated coordinates.
//
//go:build amd64 && !amd64.v2

package synth_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"geosocial/internal/rng"
	"geosocial/internal/synth"
)

// TestGenerateBytesPinned pins the SHA-256 of Generate's GSB1 and JSON
// encodings for two small corpora, so a change to the generator or to
// the geodesy it calls cannot move a generated bit unnoticed. GSB1
// stores coordinates on the E7 grid, where a last-bit change rarely
// shows; JSON carries every float64 bit.
func TestGenerateBytesPinned(t *testing.T) {
	cases := []struct {
		name  string
		cfg   synth.Config
		seed  uint64
		scale float64
		gsb1  string
		json  string
	}{
		{"primary", synth.PrimaryConfig(), 3, 0.05, "825048bc7613381e0d54010a0658353c33c8aa1684f303a4a876619ca8aa1101", "bf8d7d9f3ae205de3c7c5c2be72c351b76d8f9466ad776c865295c84e984d270"},
		{"baseline", synth.BaselineConfig(), 11, 0.2, "a91d5523b06b07bbaecaea289c46c4300812b7780ce4837f61aed140a2d0def5", "35bd0cd189690f62ef303ea068cea5dde9f3a96ce5cd4bb5d95e7fb9f7a462f8"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d/scale=%g", c.name, c.seed, c.scale), func(t *testing.T) {
			ds, err := synth.Generate(c.cfg.Scale(c.scale), rng.New(c.seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range []struct {
				name  string
				write func(io.Writer) error
				want  string
			}{{"GSB1", ds.WriteBinary, c.gsb1}, {"JSON", ds.WriteJSON, c.json}} {
				var buf bytes.Buffer
				if err := enc.write(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != enc.want {
					t.Errorf("%s, %d users, %d bytes: SHA-256 %s, pinned %s", enc.name, len(ds.Users), buf.Len(), got, enc.want)
				}
			}
		})
	}
}
