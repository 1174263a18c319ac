package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself as the measuring child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// Small inputs keep the whole self-test to seconds: 12 users, 1 s runs.
const testScale = "0.05"

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs one workload the way the benchmark command does and
// returns its exit code and decoded result line.
func runBench(t *testing.T, workload, seed, traceFlag string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{
		"-workload", workload, "-seed", seed, "-seconds", "1", "-trace", traceFlag,
		"-scale", testScale, "-workdir", t.TempDir(),
	}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, traceFlag, err, out.String(), errOut.String())
	}
	return code, res, errOut.String()
}

// TestEveryMetricEmitted checks that each workload emits exactly the
// metrics BENCHMARK.json declares, with the declared units, untraced
// and traced, and that every check passes.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		for traceFlag, declared := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, res, stderr := runBench(t, w, "42", traceFlag)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, correct=%v, %d of %d failed\n%s", w, traceFlag, code, res.Correct, res.Failed, res.Attempted, stderr)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w, traceFlag, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w, traceFlag, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s has unit %q, declared %q", w, traceFlag, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// TestSeedsDiffer checks that the seed selects the corpus and that every
// workload's checks pass on a second seed.
func TestSeedsDiffer(t *testing.T) {
	var enc [2]bytes.Buffer
	for i, seed := range []uint64{42, 43} {
		ds, err := generate(seed, 0.05, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := encodeStream(&enc[i], ds.Name, ds.POIs, ds.Users); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
		t.Fatal("seeds 42 and 43 generated identical corpora")
	}
	for _, w := range workloads {
		if code, res, stderr := runBench(t, w, "43", "0"); code != 0 || res.Failed != 0 {
			t.Errorf("%s seed 43: exit %d, %d of %d failed\n%s", w, code, res.Failed, res.Attempted, stderr)
		}
	}
}

// TestCorruptReferenceFails flips one byte of a precomputed reference
// and checks the run reports failed operations and a non-zero exit.
func TestCorruptReferenceFails(t *testing.T) {
	o := options{workload: "cold-file", seed: 42, seconds: 0.2, scale: 0.05, workers: 2, dir: t.TempDir()}
	if err := prepare(o, o.dir); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(o.dir, "file.json")
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(ref, data, 0o666); err != nil {
		t.Fatal(err)
	}
	rep, err := runChild(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Failed == 0 || rep.Result.Correct {
		t.Fatalf("corrupt reference: %d of %d failed, correct=%v; want failures", rep.Result.Failed, rep.Result.Attempted, rep.Result.Correct)
	}
	if exitCode(rep.Result) == 0 {
		t.Fatal("corrupt reference: exit code 0")
	}
}
