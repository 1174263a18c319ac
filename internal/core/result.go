package core

import (
	"encoding/json"
	"fmt"
	"io"

	"geosocial/internal/trace"
)

// StreamResult is the bounded-memory analogue of the facade's
// ValidationResult: the aggregate outputs of validating a dataset file
// (or sharded corpus) user by user, without retaining per-user
// outcomes. It is the unit of exchange across the system's edges — the
// facade's ValidateFileOpts returns it, geovalidate -json prints it, and
// the geoserve service caches and serves it — so its JSON field names
// are a compatibility contract (pinned by tests at each of those
// layers).
type StreamResult struct {
	// Name is the dataset name from the file header (or manifest).
	Name string `json:"name"`
	// Format is the detected on-disk encoding of the input.
	Format trace.Format `json:"format"`
	// Users is the number of users validated.
	Users int `json:"users"`
	// Generation is the manifest generation of a generational shard set
	// (omitted for generation 0 and plain files, keeping pre-append
	// encodings byte-identical). Incremental updates and cold runs over
	// the same appended corpus report the same generation.
	Generation int `json:"generation,omitempty"`
	// Partition is the Figure 1 Venn split.
	Partition Partition `json:"partition"`
	// Taxonomy holds the §5.1 per-kind checkin counts, keyed by
	// classify.Kind.String() (as in ValidationResult.Breakdown).
	Taxonomy map[string]int `json:"taxonomy"`
	// Truth scores the matcher against generator ground-truth labels; nil
	// when the dataset carries none (real data).
	Truth *TruthScore `json:"truth,omitempty"`
	// Shards holds per-input statistics when the input was a shard set;
	// nil for a plain single file. The aggregate fields above never
	// depend on how the corpus was split.
	Shards []ShardStat `json:"shards,omitempty"`
}

// ShardStat describes one input stream of a multi-file validation run.
type ShardStat struct {
	// Path names the input (shard file name from the manifest, or the
	// caller-supplied path).
	Path string `json:"path"`
	// Users is the number of users this input contributed.
	Users int `json:"users"`
	// Partition is this input's share of the Figure 1 split.
	Partition Partition `json:"partition"`
}

// Encode serializes the result for at-rest storage (the geoserve result
// cache). The encoding is deterministic — encoding/json emits struct
// fields in declaration order and map keys sorted — so equal results
// encode to identical bytes, which is what lets cached responses be
// compared byte-for-byte against freshly computed ones.
func (r *StreamResult) Encode() ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("core: encode result: %w", err)
	}
	return data, nil
}

// DecodeStreamResult reverses Encode. It also accepts the indented JSON
// emitted by geovalidate -json and served by geoserve — the three
// encodings share one schema, pinned by round-trip tests.
func DecodeStreamResult(data []byte) (*StreamResult, error) {
	var r StreamResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	return &r, nil
}

// WriteIndentedJSON writes v in the canonical presentation encoding
// (two-space indent, trailing newline). geovalidate -json and every
// geoserve HTTP response encode through this one function, which is
// what makes "served partition == CLI partition" a byte-for-byte
// guarantee rather than two call sites happening to agree.
func WriteIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
