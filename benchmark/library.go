package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"iotrace"
)

// libSpec is a workload run through the library: a generated workload
// swept over a fixed list of scenarios on one worker.
type libSpec struct {
	name      string
	options   func(seed uint64) []iotrace.Option
	scenarios []iotrace.Scenario
	check     func(ref traceRef, res []iotrace.SweepResult) error
}

// fig8 is the paper's Figure 8: two venus copies under the default
// configuration, over caches of 4-256 MB and blocks of 4 and 8 KB.
var fig8 = libSpec{
	name: "fig8",
	options: func(seed uint64) []iotrace.Option {
		return []iotrace.Option{iotrace.App("venus", 2), iotrace.Seed(seed)}
	},
	scenarios: iotrace.Grid{
		CacheMB: []int64{4, 8, 16, 32, 64, 128, 256},
		BlockKB: []int64{4, 8},
	}.Scenarios(),
	check: checkFig8,
}

// manyproc is a deep-queue mix: 24 processes on the paper's eight-CPU
// Y-MP over a striped four-volume array, writing through a cache larger
// than their files, behind a 150 MB/s backbone.
var manyproc = libSpec{
	name: "manyproc",
	options: func(seed uint64) []iotrace.Option {
		return []iotrace.Option{
			iotrace.App("ccm", 8), iotrace.App("upw", 8), iotrace.App("gcm", 8),
			iotrace.Seed(seed),
		}
	},
	scenarios: manyprocScenarios(),
	check:     checkManyproc,
}

// manyprocFaults is one volume outage, longer than the retry timeout so
// some processes restart, plus one backbone blackout.
const manyprocFaults = "vol1:down@300s+45s,backbone:down@900s+20s"

func manyprocScenarios() []iotrace.Scenario {
	base := iotrace.DefaultConfig()
	base.NumCPUs = 8
	base.WriteBehind = false
	base.CacheBytes = 4096 << 20
	base = iotrace.Configure(base, iotrace.Volumes(4), iotrace.SplitSpindles())
	plan, err := iotrace.ParseFaultPlan(manyprocFaults)
	if err != nil {
		panic(err) // a constant plan
	}
	var out []iotrace.Scenario
	for _, sched := range []iotrace.SchedulerPolicy{iotrace.SchedFCFS, iotrace.SchedSCAN} {
		for _, bb := range []iotrace.BackboneSchedPolicy{iotrace.BackboneFairShare, iotrace.BackbonePeriodic} {
			for _, faults := range []*iotrace.FaultPlan{nil, plan} {
				cfg := iotrace.Configure(base,
					iotrace.Scheduling(sched), iotrace.Backbone(150, bb), iotrace.Faults(faults))
				label := "off"
				if faults != nil {
					label = "on"
				}
				out = append(out, iotrace.Scenario{
					Name:   fmt.Sprintf("sched=%v backbone=%v faults=%s", sched, bb, label),
					Config: cfg,
				})
			}
		}
	}
	return out
}

// libraries are the workloads run through the library, by name.
var libraries = map[string]libSpec{"fig8": fig8, "manyproc": manyproc}

// setupLibrary builds and fingerprints the workload: all a library user
// pays before the first cell.
func setupLibrary(tr *tracer, spec libSpec, seed uint64) (*iotrace.Workload, time.Duration, error) {
	start := time.Now()
	gen := tr.begin("apps.generate", -1)
	w, err := iotrace.New(spec.options(seed)...)
	tr.end(gen)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	fp := tr.begin("iotrace.fingerprint", -1)
	_, err = w.Fingerprint()
	tr.end(fp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: fingerprint: %w", spec.name, err)
	}
	return w, time.Since(start), nil
}

// childSetup is what one set-up in a child process measured: its time
// and, when traced, its spans and its set-up phase.
type childSetup struct {
	Setup time.Duration `json:"setup_ns"`
	Spans []span        `json:"spans,omitempty"`
	Phase *phaseStats   `json:"phase,omitempty"`
}

// runSetupChild times one set-up of a library workload in this process,
// which has done nothing else, and prints it as one JSON line.
func runSetupChild(name string, seed uint64, traced bool) error {
	spec, ok := libraries[name]
	if !ok {
		return fmt.Errorf("no library workload %q", name)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var c childSetup
	err := tr.phase("setup", func() error {
		var err error
		_, c.Setup, err = setupLibrary(tr, spec, seed)
		return err
	})
	if err != nil {
		return err
	}
	if tr != nil {
		tr.count("setup", 1)
		c.Spans, c.Phase = tr.spans, tr.phases["setup"]
	}
	return json.NewEncoder(os.Stdout).Encode(c)
}

// childSetups times librarySetups set-ups of the workload, each in a
// fresh child process with the run's seed, one after the other.
// Generated traces are memoized for the life of a process: a repeat in
// this process would time a lookup, and a new seed per repeat would grow
// the heap by one workload each time, so that later repeats ran under
// another collector state than the first.
func (r *run) childSetups(name string) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traced := "0"
	if r.tr != nil {
		traced = "1"
	}
	var ds []time.Duration
	for k := 0; k < librarySetups; k++ {
		launched := time.Now()
		cmd := exec.Command(exe, "-setup-child", "-workload", name,
			"-seed", strconv.FormatUint(r.seed, 10), "-trace", traced)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", name, k, err)
		}
		var c childSetup
		if err := json.Unmarshal(out, &c); err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", name, k, err)
		}
		ds = append(ds, c.Setup)
		r.tr.adopt(c, launched)
	}
	return ds, nil
}

// runLibrary runs a library workload: its own set-up, the timed set-ups
// in child processes, then as many whole sweeps as the window holds.
func runLibrary(ctx context.Context, r *run, spec libSpec) error {
	w, _, err := setupLibrary(nil, spec, r.seed)
	if err != nil {
		return err
	}
	ref := countTrace(w)
	setups, err := r.childSetups(spec.name)
	if err != nil {
		return err
	}

	// Every sweep, traced or not, must pass the checks and render
	// byte-identically to the first.
	var first [][]byte
	checkSweep := func(res []iotrace.SweepResult) error {
		r.check(spec.check(ref, res))
		views, err := render(res)
		if err != nil {
			return err
		}
		if first == nil {
			first = views
		} else if !equalViews(first, views) {
			r.check(fmt.Errorf("%s: a repeated sweep rendered different results", spec.name))
		}
		return nil
	}

	var last []iotrace.SweepResult
	if r.tr == nil {
		var sweeps []time.Duration
		var cpus []float64 // CPU seconds of each sweep
		start := time.Now()
		for {
			var res []iotrace.SweepResult
			var d time.Duration
			var cpu float64
			err := r.tr.phase("sweep", func() error {
				var err error
				res, d, cpu, err = r.librarySweep(ctx, w, spec.scenarios)
				return err
			})
			if err != nil {
				return err
			}
			sweeps, cpus = append(sweeps, d), append(cpus, cpu)
			if err := checkSweep(res); err != nil {
				return err
			}
			last = res
			if time.Since(start)+d > r.window {
				break
			}
		}
		logf("%s: %d sweeps of %d cells, median %.3f s", spec.name, len(sweeps), len(spec.scenarios), median(seconds(sweeps)))
		r.set("sweep_s", median(seconds(sweeps)))
		r.set("sweep_cpu_s", median(cpus))
	} else {
		var traced []time.Duration
		var untracedCPU, tracedCPU []float64
		start := time.Now()
		for {
			plain, prof, cpu, d, err := r.pairedSweep(ctx, w, spec.scenarios)
			if err != nil {
				return err
			}
			untracedCPU, tracedCPU = append(untracedCPU, cpu[0]), append(tracedCPU, cpu[1])
			traced = append(traced, d)
			for _, res := range [][]iotrace.SweepResult{plain, prof} {
				if err := checkSweep(res); err != nil {
					return err
				}
			}
			last = prof
			if time.Since(start)+2*d > r.window {
				break
			}
		}
		r.tr.overhead(untracedCPU, tracedCPU)
		r.simCounts(last, ref, traced)
		r.set("apps.records", float64(ref.records))
	}
	r.set("setup_s", median(seconds(setups)))
	r.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(last)
	runtime.KeepAlive(w)
	return nil
}

// librarySweep runs one sweep of every scenario on one worker and
// returns its wall time and the process's CPU seconds.
func (r *run) librarySweep(ctx context.Context, w *iotrace.Workload, scens []iotrace.Scenario) ([]iotrace.SweepResult, time.Duration, float64, error) {
	cpu := processCPU()
	start := time.Now()
	res, err := w.Sweep(ctx, scens, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	d := time.Since(start)
	cpu = processCPU() - cpu
	r.countCells(res)
	return res, d, cpu, nil
}

// pairedSweep runs every scenario twice, one Workload.Sweep call each:
// once plainly and once under the tracer, back to back, the traced call
// first on every other cell. It returns both sweeps' results, their CPU
// seconds (plain, traced), and the traced sweep's wall time. The same
// calls with and without the profiler give the tracing overhead; one
// call per cell gives each cell a span. Only the first call is preceded
// by a forced collection, as a whole sweep is.
func (r *run) pairedSweep(ctx context.Context, w *iotrace.Workload, scens []iotrace.Scenario) (plain, prof []iotrace.SweepResult, cpu [2]float64, d time.Duration, err error) {
	plain = make([]iotrace.SweepResult, len(scens))
	prof = make([]iotrace.SweepResult, len(scens))
	runtime.GC()
	sweep := r.tr.begin("sweep", -1)
	for i, sc := range scens {
		for _, traced := range [2]bool{i%2 == 1, i%2 == 0} {
			tr, out, k := (*tracer)(nil), plain, 0
			if traced {
				tr, out, k = r.tr, prof, 1
			}
			err = tr.measure("sweep", func() error {
				c0, t0 := processCPU(), time.Now()
				cell := tr.begin("sim.cell", sweep)
				one, err := w.Sweep(ctx, []iotrace.Scenario{sc}, 1)
				tr.end(cell)
				if traced {
					d += time.Since(t0)
				}
				cpu[k] += processCPU() - c0
				if err == nil {
					out[i] = one[0]
				}
				return err
			})
			if err != nil {
				return
			}
		}
	}
	r.tr.end(sweep)
	r.tr.count("sweep", 1)
	r.countCells(plain)
	r.countCells(prof)
	return
}

// countCells counts a sweep's cells as attempted operations and the
// cells that returned an error as failed ones.
func (r *run) countCells(res []iotrace.SweepResult) {
	r.attempted += int64(len(res))
	for _, c := range res {
		if c.Err != nil {
			r.failed++
			r.check(fmt.Errorf("%s: %v", c.Scenario.Name, c.Err))
		}
	}
}

// render marshals every cell as the service would serve it.
func render(res []iotrace.SweepResult) ([][]byte, error) {
	out := make([][]byte, len(res))
	for i, c := range res {
		if c.Result == nil {
			return nil, fmt.Errorf("%s: no result", c.Scenario.Name)
		}
		b, err := json.Marshal(iotrace.NewResultView(c.Scenario.Name, c.Key, c.Result))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func equalViews(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// traceRef is what the benchmark counts itself from the generated
// traces, to check the simulator's counts against.
type traceRef struct {
	records     int64   // all records of all processes
	logical     int64   // logical (request) records
	logicalRead []int64 // logical read records, per process
}

func countTrace(w *iotrace.Workload) traceRef {
	var ref traceRef
	for _, p := range w.Procs {
		var reads int64
		for _, rec := range p.Records {
			ref.records++
			if rec.IsComment() || !rec.Type.IsLogical() {
				continue
			}
			ref.logical++
			if rec.Type.IsRead() {
				reads++
			}
		}
		ref.logicalRead = append(ref.logicalRead, reads)
	}
	return ref
}
