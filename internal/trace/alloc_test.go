// The race detector's sync.Pool deliberately drops a fraction of Puts
// to shake out lifecycle bugs, so a zero-alloc pool assertion cannot
// hold under -race; the test runs in regular builds only.
//
//go:build !race

package trace

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestDecodeFrameSteadyStateAllocs pins the hot-path allocation budget:
// once a consumer recycles decoded users, DecodeFrame on an in-memory
// stream must not allocate at all — the pooled record is refilled in
// place, checkin POI names resolve through the intern table, and truth
// labels come from the label table.
func TestDecodeFrameSteadyStateAllocs(t *testing.T) {
	// sync.Pool contents may be dropped by a garbage collection between
	// runs; disable collection so the measurement sees the steady state
	// the pool is designed for.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var buf bytes.Buffer
	if err := testDataset().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// In-memory frames are subslices of the backing data, so they can be
	// fetched once and decoded repeatedly.
	var frames []Frame
	for {
		f, err := sr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if len(frames) != len(testDataset().Users) {
		t.Fatalf("fetched %d frames, want %d", len(frames), len(testDataset().Users))
	}

	// Warm the record pool and slice capacities.
	for _, f := range frames {
		u, err := sr.DecodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		sr.RecycleUser(u)
	}

	allocs := testing.AllocsPerRun(200, func() {
		for _, f := range frames {
			u, err := sr.DecodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			sr.RecycleUser(u)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame: %v allocs per run, want 0", allocs)
	}
}

// TestFoldSteadyStateAllocs pins FoldUser's allocation budget: once the
// record pool holds a record with room for the folded trace, a fold
// fills it in place, so what it allocates does not grow with the GPS
// trace. The budget is far below one trace; both ways of handing the
// output back (the whole record, or its fixes alone while the checkins
// are still read) stay within it. TotalAlloc is process-wide, so the
// folds run under GOMAXPROCS(1), as testing.AllocsPerRun isolates its
// count: other goroutines' allocations would count against FoldUser.
func TestFoldSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	ds := shardTestDataset(4, 1)
	base := ds.Users[0]
	for k := int64(60); k < 2000; k++ {
		base.GPS = append(base.GPS, GPSPoint{T: k * 60, Loc: base.GPS[0].Loc})
	}
	delta := &User{ID: base.ID, Days: 2, GPS: GPSTrace{{T: 1 << 30, Loc: base.GPS[0].Loc}}}
	var sr StreamReader
	for name, recycle := range map[string]func(*User){"RecycleUser": sr.RecycleUser, "RecycleGPS": RecycleGPS} {
		fold := func() {
			u, err := FoldUser(base, []*User{delta})
			if err != nil {
				t.Fatal(err)
			}
			if len(u.GPS) != len(base.GPS)+1 || len(u.Checkins) != len(base.Checkins) {
				t.Fatalf("%s: folded %d fixes, %d checkins", name, len(u.GPS), len(u.Checkins))
			}
			recycle(u)
		}
		fold() // warm the pool
		var before, after runtime.MemStats
		const runs = 50
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fold()
		}
		runtime.ReadMemStats(&after)
		traceBytes := uint64(len(base.GPS)) * uint64(unsafe.Sizeof(GPSPoint{}))
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per fold of a %d-byte trace", name, per, traceBytes)
		if per > traceBytes/64 {
			t.Errorf("%s: steady-state FoldUser allocates %d bytes per fold, want <= %d (a %d-byte trace / 64)",
				name, per, traceBytes/64, traceBytes)
		}
	}
}

// TestOpenShardSteadyStateAllocs pins the per-set header check: the
// first open of a shard set parses and checks the POI table, and every
// later open of a shard with the same header shares it, allocating a
// small constant rather than a string and a map entry per venue.
func TestOpenShardSteadyStateAllocs(t *testing.T) {
	ds := shardTestDataset(2000, 4)
	defer SetMmapDisabled(SetMmapDisabled(false))
	for _, mapped := range []bool{true, false} {
		SetMmapDisabled(!mapped)
		ss, _ := headerSet(t, ds, 2, false)
		open := func(i int) {
			r, err := ss.OpenShard(i)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		}
		first := testing.AllocsPerRun(1, func() {
			ss.hdr.Store(nil)
			open(0)
		})
		later := testing.AllocsPerRun(20, func() { open(1) })
		t.Logf("mapped=%v: first open %v allocations, later opens %v", mapped, first, later)
		if later > 32 {
			t.Errorf("mapped=%v: a later OpenShard allocates %v times, want <= 32 (the first: %v)", mapped, later, first)
		}
		if first < 2000 {
			t.Errorf("mapped=%v: the first OpenShard allocates %v times, expected a parse of 2000 venues", mapped, first)
		}
	}
}

// TestFoldSourceSteadyStateAllocs pins record recycling through a
// generational set: once a consumer recycles what a fold source decodes,
// a pass over the base frames allocates no records or traces — neither
// for users with delta frames (the base record goes back to the pool
// after FoldUser copies it) nor for users without (the base passes
// through and comes back from the consumer). Like the FoldUser test it
// reads the process-wide TotalAlloc, so it measures under GOMAXPROCS(1).
func TestFoldSourceSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	ds := shardTestDataset(16, 8)
	for _, u := range ds.Users {
		for k := int64(len(u.GPS)); k < 600; k++ {
			u.GPS = append(u.GPS, GPSPoint{T: k * 60, Loc: u.GPS[0].Loc})
		}
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var frames []Frame
	for {
		f, err := sr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// Every other user has one delta frame appending a fix.
	deltas := &DeltaSet{users: make(map[int][]*User), home: make(map[int]int)}
	for _, u := range ds.Users {
		if u.ID%2 == 0 {
			deltas.users[u.ID] = []*User{{ID: u.ID, Days: 2, GPS: GPSTrace{{T: 1 << 30, Loc: u.GPS[0].Loc}}}}
			deltas.home[u.ID] = 1
		}
	}
	src := deltas.FoldSource(sr)
	rec, ok := src.(UserRecycler)
	if !ok {
		t.Fatal("a fold source over a stream reader is not a UserRecycler")
	}
	pass := func() {
		for i, f := range frames {
			u, err := src.DecodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(ds.Users[i].GPS) + len(deltas.users[u.ID]); len(u.GPS) != want {
				t.Fatalf("user %d: %d fixes, want %d", u.ID, len(u.GPS), want)
			}
			rec.RecycleUser(u)
		}
	}
	pass() // warm the pool
	var before, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	traceBytes := uint64(len(ds.Users)*600) * uint64(unsafe.Sizeof(GPSPoint{}))
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per pass over %d users (%d trace bytes)", per, len(frames), traceBytes)
	if per > traceBytes/64 {
		t.Errorf("steady-state fold source allocates %d bytes per pass, want <= %d (%d trace bytes / 64)",
			per, traceBytes/64, traceBytes)
	}
}
