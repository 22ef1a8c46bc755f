// Command iotracebench is the repository's benchmark: it runs one
// workload through the public iotrace API, checks the outputs, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also profiles each phase and prints the per-layer metrics. See
// README.md for the workloads, metrics and layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"sweep_cpu_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, on every workload. A
// layer a workload leaves idle reports 0, as does a phase a workload
// does not have. Times and allocation figures are per unit of work of
// their phase (a set-up, a sweep, a warm request); simulated counts are
// per sweep.
var perLayer = []metricDef{
	{"apps.generate_s", "s"},
	{"apps.records", "count"},
	{"apps.self_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.self_s", "s"},
	{"iotrace.fingerprint_s", "s"},
	{"iotrace.self_s", "s"},
	{"sim.engine.self_s", "s"},
	{"sim.cell_s", "s"},
	{"sim.cell_max_s", "s"},
	{"sim.requests_per_host_s", "1/s"},
	{"sim.simulated_s_per_host_s", "s/s"},
	{"sim.engine.simulated_s", "s"},
	{"sim.engine.idle_s", "s"},
	{"sim.engine.event_copy_pct", "%"},
	{"sim.cache.self_s", "s"},
	{"sim.cache.evict_clean_pct", "%"},
	{"sim.cache.read_hits", "count"},
	{"sim.cache.read_misses", "count"},
	{"sim.cache.prefetch_ops", "count"},
	{"sim.cache.wasted_prefetch", "count"},
	{"sim.cache.space_stalls", "count"},
	{"sim.cache.write_absorbed", "count"},
	{"sim.cache.write_through", "count"},
	{"sim.cache.bypasses", "count"},
	{"sim.volume.self_s", "s"},
	{"sim.volume.reads", "count"},
	{"sim.volume.writes", "count"},
	{"sim.volume.busy_s", "s"},
	{"sim.volume.seek_s", "s"},
	{"sim.volume.max_queue_depth", "count"},
	{"sim.volume.queue_waits", "count"},
	{"sim.volume.queue_wait_s", "s"},
	{"sim.volume.flush_runs", "count"},
	{"sim.backbone.self_s", "s"},
	{"sim.backbone.transfers", "count"},
	{"sim.backbone.wait_s", "s"},
	{"sim.backbone.max_queue", "count"},
	{"sim.fault.self_s", "s"},
	{"sim.fault.retried_requests", "count"},
	{"sim.fault.restarts", "count"},
	{"sim.fault.degraded_s", "s"},
	{"svc.upload_s", "s"},
	{"svc.cold_cell_s", "s"},
	{"svc.warm_response_bytes", "bytes"},
	{"svc.self_s", "s"},
	{"svc.executed_cells", "count"},
	{"svc.cache_hits", "count"},
	{"svc.coalesced", "count"},
	{"json.self_s", "s"},
	{"net.self_s", "s"},
	{"sha256.self_s", "s"},
	{"runtime.gc.self_s", "s"},
	{"runtime.self_s", "s"},
	{"other.self_s", "s"},
	{"runtime.alloc_mb.setup", "MB"},
	{"runtime.alloc_mb.sweep", "MB"},
	{"runtime.alloc_mb.warm", "MB"},
	{"runtime.gc_cycles.setup", "count"},
	{"runtime.gc_cycles.sweep", "count"},
	{"runtime.gc_cycles.warm", "count"},
	{"runtime.cpu_s.setup", "s"},
	{"runtime.cpu_s.sweep", "s"},
	{"runtime.cpu_s.warm", "s"},
	{"trace_overhead_pct", "%"},
}

// run is the state of one benchmark run: its settings, the operations
// it attempted, the checks that failed, and the metrics it measured.
type run struct {
	seed   uint64
	window time.Duration
	dir    string  // scratch directory inside the working tree
	tr     *tracer // nil in untraced runs
	out    io.Writer

	attempted, failed int64
	problems          []string
	values            map[string]float64
}

// check records a failed correctness check.
func (r *run) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// set records one metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// Set-up is timed this many times per run, so setup_s is a median: the
// library workloads time it in as many child processes, iosimd runs at
// least this many rounds.
const (
	librarySetups = 25
	serviceSetups = 7
)

var workloads = map[string]func(context.Context, *run) error{
	"fig8":     func(ctx context.Context, r *run) error { return runLibrary(ctx, r, fig8) },
	"manyproc": func(ctx context.Context, r *run) error { return runLibrary(ctx, r, manyproc) },
	"iosimd":   runService,
}

func main() {
	name := flag.String("workload", "", "workload to run: fig8, manyproc or iosimd")
	seed := flag.Uint64("seed", 1, "workload seed (iotrace.Seed for generated applications)")
	seconds := flag.Float64("seconds", 30, "measurement window of the run, in seconds")
	traced := flag.Int("trace", 0, "1 adds a profiled pass and prints the per-layer metrics")
	setupChild := flag.Bool("setup-child", false, "time one set-up of a library workload and print it as JSON (used by the benchmark itself)")
	flag.Parse()
	if *setupChild {
		if err := runSetupChild(*name, *seed, *traced == 1); err != nil {
			fmt.Fprintln(os.Stderr, "iotracebench set-up:", err)
			os.Exit(1)
		}
		return
	}
	if err := mainErr(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "iotracebench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, traced bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want fig8, manyproc or iosimd)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("seconds must be positive, got %v", seconds)
	}
	base := os.Getenv("BENCH_WORKDIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{
		seed:   seed,
		window: time.Duration(seconds * float64(time.Second)),
		dir:    dir,
		out:    os.Stdout,
		values: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	if err := fn(context.Background(), r); err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		r.tr.finish(r)
		if err := r.tr.writeSpans(filepath.Join(base, "spans-"+name+".json")); err != nil {
			return err
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	if err := printResult(r, defs); err != nil {
		return err
	}
	if len(r.problems) > 0 {
		return fmt.Errorf("%d correctness checks failed", len(r.problems))
	}
	return nil
}

// printResult prints the metrics as a table, then the one-line JSON
// result. Every defined metric must have been measured.
func printResult(r *run, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = value{v, d.unit}
		fmt.Fprintf(r.out, "%-30s %16.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(line))
	return nil
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the middle of xs (the mean of the middle two when
// len(xs) is even); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// logf writes one progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
