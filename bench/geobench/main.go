// Command geobench measures the validator end to end and layer by layer
// on four workloads generated from a seed: a cold single-file run, a
// durable sharded run, incremental append-and-update, and the HTTP
// service. See README.md for the workloads, the metric catalog and the
// comparison rule. Run it from the repository root:
//
//	bash bench/geobench/run.sh --workload cold-file --seed 42 --seconds 20 --trace 0
//	bash bench/geobench/run.sh --seed 42          # every workload, untraced then traced
//
// Each run sets up its inputs several times (set-up time is a metric),
// then measures in a child process of its own, so peak RSS and GC state
// belong to the workload alone. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// workloads in presentation order; comparisons refer to them by name.
var workloads = []string{"cold-file", "cold-shards", "append-update", "service"}

// setupReps is how many times a timed run sets up its inputs; setup_s is
// the median.
const setupReps = 3

// childEnv marks a re-executed child and names its prepared directory.
const childEnv = "GEOBENCH_CHILD_DIR"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	workdir  string
	spans    string
	workers  int
	dir      string // prepared inputs (child only)
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last output line carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is a number printed for people but not part of the result
// object: per-cut and per-route breakdowns and sample counts.
type info struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a child hands its parent.
type report struct {
	Result result  `json:"result"`
	PrepS  float64 `json:"prep_s"`
	Info   []info  `json:"info"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and executes the selected mode, returning the exit
// code: 0 when every check passed, 1 when a check failed or the
// benchmark could not run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, "+fmt.Sprint(workloads))
	fs.Uint64Var(&o.seed, "seed", 42, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured duration of one run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: untraced end-to-end pass; 1: traced per-layer pass")
	fs.Float64Var(&o.scale, "scale", 1, "corpus size as a multiple of the paper's 244-user primary cohort")
	fs.StringVar(&o.workdir, "workdir", "geobench-work", "directory for generated inputs (removed after each run)")
	fs.StringVar(&o.spans, "spans", "", "write the traced pass's spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "geobench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	o.workers = min(runtime.NumCPU(), 4)
	if o.scale <= 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "geobench: -scale and -seconds must be positive")
		return 2
	}

	if dir := os.Getenv(childEnv); dir != "" {
		o.dir = dir
		rep, err := runChild(o)
		if err != nil {
			fmt.Fprintf(stderr, "geobench: %s: %v\n", o.workload, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			return 1
		}
		return 0
	}

	if o.workload != "all" {
		if !slices.Contains(workloads, o.workload) {
			fmt.Fprintf(stderr, "geobench: unknown workload %q (have %v)\n", o.workload, workloads)
			return 2
		}
		res, err := runWorkload(o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "geobench: %s: %v\n", o.workload, err)
			return 1
		}
		data, err := json.Marshal(res)
		if err != nil {
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return exitCode(res)
	}

	code := 0
	fmt.Fprintf(stdout, "# geobench seed=%d workers=%d scale=%g seconds=%g\n", o.seed, o.workers, o.scale, o.seconds)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			wo := o
			wo.workload, wo.trace = w, traced
			if traced && o.spans != "" {
				wo.spans = fmt.Sprintf("%s.%s.json", o.spans, w)
			}
			res, err := runWorkload(wo, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "geobench: %s: %v\n", w, err)
				code = 1
				continue
			}
			fmt.Fprintf(stdout, "%s error_rate %.6f failed/attempted\n", w, float64(res.Failed)/float64(max(res.Attempted, 1)))
			code = max(code, exitCode(res))
		}
	}
	return code
}

func exitCode(r result) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload sets up the workload's inputs (setupReps times for a timed
// run, once for a traced one), measures in a child process, prints
// every metric as "workload metric value unit", and returns the result.
func runWorkload(o options, stdout, stderr io.Writer) (result, error) {
	base := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	defer os.RemoveAll(base)
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var setups []float64
	var dir string
	for i := 0; i < reps; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return result{}, err
			}
		}
		dir = filepath.Join(base, fmt.Sprint("setup", i))
		t0 := time.Now()
		if err := prepare(o, dir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep, err := spawn(o, dir, stderr)
	if err != nil {
		return result{}, err
	}
	res := rep.Result
	if !o.trace {
		res.Metrics["setup_s"] = metric{median(setups) + rep.PrepS, "s"}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", o.workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, in := range rep.Info {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", o.workload, in.Name, in.Value, in.Unit)
	}
	return res, nil
}

// spawn re-executes this binary as the measuring child for one
// workload and decodes its report.
func spawn(o options, dir string, stderr io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	traceFlag := "0"
	if o.trace {
		traceFlag = "1"
	}
	cmd := exec.Command(exe,
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", traceFlag,
		"-scale", fmt.Sprint(o.scale), "-spans", o.spans)
	cmd.Env = append(os.Environ(), childEnv+"="+dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("measuring child: %w", err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return report{}, fmt.Errorf("measuring child output: %w", err)
	}
	if rep.Result.Metrics == nil {
		return report{}, errors.New("measuring child reported no metrics")
	}
	return rep, nil
}

// runChild measures one workload over prepared inputs.
func runChild(o options) (report, error) {
	if o.trace {
		return traced(o)
	}
	switch o.workload {
	case "cold-file":
		return coldFile(o)
	case "cold-shards":
		return coldShards(o)
	case "append-update":
		return appendUpdate(o)
	case "service":
		return serviceWorkload(o)
	}
	return report{}, fmt.Errorf("unknown workload %q", o.workload)
}
