// Command perfbench is the repository's benchmark. It builds a simulated
// PUFatt deployment from a workload seed, drives it through the public
// constructors and calls of the attestation, cluster, store and core
// packages, checks the outputs, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separately traced run reports the per-layer split. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metric names one reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"session_p50_ms", "ms"},
	{"accept_rate", "ratio"},
	{"capacity_per_s", "sessions/s"},
	{"enroll_crps_per_s", "rows/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics, named after the
// package each layer lives in. A layer a workload does not reach reads 0.
var perLayer = []metric{
	{"loadgen.session_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.queue_p50_ms", "ms"},
	{"loadgen.queue_p99_ms", "ms"},
	{"cluster.admit_p50_us", "us"},
	{"cluster.admit_p99_us", "us"},
	{"cluster.claim_p50_us", "us"},
	{"cluster.claim_p99_us", "us"},
	{"cluster.claims_per_session", "count"},
	{"cluster.audit_frames", "count"},
	{"crpstore.claim_p50_us", "us"},
	{"crpstore.claim_p99_us", "us"},
	{"crpstore.create_ms_per_device", "ms"},
	{"mcu.respond_p50_ms", "ms"},
	{"mcu.respond_p99_ms", "ms"},
	{"mcu.share", "ratio"},
	{"mcu.sim_compute_ms", "ms"},
	{"core.reference_calls_per_session", "count"},
	{"core.reference_p50_us", "us"},
	{"core.reference_ms_per_session", "ms"},
	{"core.batch_eval_ms_per_device", "ms"},
	{"core.batch_rows_per_s", "rows/s"},
	{"attest.verify_self_p50_us", "us"},
	{"attest.verify_self_p99_us", "us"},
	{"attest.verifier_cpu_ms_per_session", "ms"},
	{"attest.rejected", "count"},
	{"attest.transport_failed", "count"},
	{"attest.retries_per_session", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// runOptions are one run's settings.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
	workDir  string
}

// report is what a workload run hands back for printing.
type report struct {
	attempted, failed int
	problems          []string // failed output checks
	notes             []string
	e2e               map[string]float64
	layers            map[string]float64
	meta              map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, meta: map[string]any{}}
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(runOptions) (*report, error){
	workloadEmulated: runFleet,
	workloadEnroll:   runEnroll,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect fails a run whose output checks failed, after its result
// line was printed.
var errIncorrect = errors.New("output checks failed")

func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := flags.String("workload", "", "fleet-emulated or enroll-batch")
	seed := flags.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flags.Float64("seconds", 10, "measured seconds per run")
	trace := flags.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	root := flags.String("root", ".", "checkout root: scratch files go under <root>/.bench_build")
	if err := flags.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	opts := runOptions{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, procs: procs, workDir: workDir}
	rep, err := runWorkload(opts)
	if err != nil {
		return err
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	meta := runMetadata(*root, opts)
	for k, v := range rep.meta {
		meta[k] = v
	}
	defs, values := endToEnd, rep.e2e
	if opts.trace {
		defs, values = perLayer, rep.layers
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	w := bufio.NewWriter(out)
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A percentile over failed sessions (+∞) or an empty ratio.
			rep.problems = append(rep.problems, fmt.Sprintf("%s is %v", m.name, v))
			res.Correct = false
			v = math.MaxFloat64
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", metaLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// jsonNumbers prepares values for the meta line: JSON has no infinity, so
// an infinite value (a window whose p99 fell on a failed session) becomes
// the string "+Inf".
func jsonNumbers(values []float64) []any {
	out := make([]any, len(values))
	for i, v := range values {
		out[i] = v
		if math.IsInf(v, 0) || math.IsNaN(v) {
			out[i] = fmt.Sprint(v)
		}
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runMetadata records where and on what a run was measured.
func runMetadata(root string, opts runOptions) map[string]any {
	return map[string]any{
		"workload":      opts.workload,
		"seed":          opts.seed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": sourceDigest(root),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout exported without history reports "unknown"
// (its sources are still pinned by source_sha256).
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout,
// path and content, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
