package geosocial_test

// Ingest-scaling benchmarks: the same corpus validated as one binary
// file and as 4- and 8-shard sets, and the write of an 8-shard set. With all cores available
// (workers=0), shard count is the I/O fan-out axis — each shard gets
// its own frame-fetch goroutine while decode+validate share one worker
// pool — so on multi-core hardware throughput should scale with shard
// count until the pool saturates. Run with
//
//	go test -run '^$' -bench ValidateShards -benchtime 3x .
//
// and compare users/s across the sub-benchmarks; CI archives the
// results as a BENCH_*.json artifact via cmd/benchjson. SaveShards
// times the write stage alone:
//
//	go test -run '^$' -bench SaveShards -benchtime 5x -benchmem .

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"geosocial"
	"geosocial/internal/rng"
	"geosocial/internal/synth"
	"geosocial/internal/trace"
)

var (
	shardBenchOnce sync.Once
	shardBenchDS   *trace.Dataset
	shardBenchErr  error
)

// shardBenchDataset generates the shared corpus once per process.
func shardBenchDataset(b *testing.B) *trace.Dataset {
	b.Helper()
	shardBenchOnce.Do(func() {
		shardBenchDS, shardBenchErr = synth.Generate(synth.PrimaryConfig().Scale(0.15), rng.New(42))
	})
	if shardBenchErr != nil {
		b.Fatal(shardBenchErr)
	}
	return shardBenchDS
}

// BenchmarkValidateShards measures end-to-end streaming validation
// (decode + visit detection + matching + classification) of the same
// corpus stored as a single file and as sharded sets.
func BenchmarkValidateShards(b *testing.B) {
	ds := shardBenchDataset(b)
	bench := func(b *testing.B, input string, users int) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := geosocial.ValidateFileOpts(input, geosocial.StreamOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Users != users {
				b.Fatalf("validated %d users, want %d", res.Users, users)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(users)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
	}

	b.Run("file", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "primary.bin")
		if err := ds.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		bench(b, path, len(ds.Users))
	})
	for _, shards := range []int{4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			manifest, err := ds.SaveShards(b.TempDir(), trace.ShardOptions{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			bench(b, manifest, len(ds.Users))
		})
	}
}

// BenchmarkSaveShards measures the write stage: the same corpus saved
// as an 8-shard set, gzip (each shard deflated on its own goroutine)
// and plain.
func BenchmarkSaveShards(b *testing.B) {
	ds := shardBenchDataset(b)
	for _, gz := range []bool{true, false} {
		name := "plain"
		if gz {
			name = "gzip"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				if _, err := ds.SaveShards(dir, trace.ShardOptions{Shards: 8, Compress: gz}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
