package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"

	"iotrace"
)

func TestLayerMap(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"iotrace/internal/sim.(*cache).evictLRUClean", "/src/internal/sim/cache.go"}}, "sim.cache"},
		{[]frame{{"iotrace/internal/sim.(*Simulator).dispatchVolume", "/src/internal/sim/sched.go"}}, "sim.volume"},
		{[]frame{{"iotrace/internal/sim.(*Simulator).run", "/src/internal/sim/sim.go"}}, "sim.engine"},
		{[]frame{{"iotrace/internal/sim.(*Simulator).grant", "/src/internal/sim/backbone.go"}}, "sim.backbone"},
		{[]frame{{"iotrace/internal/sim.(*Simulator).faultStart", "/src/internal/sim/fault.go"}}, "sim.fault"},
		{[]frame{{"iotrace.(*Server).cell", "/src/server.go"}}, "svc"},
		{[]frame{{"iotrace.(*Workload).Fingerprint", "/src/key.go"}}, "iotrace"},
		{[]frame{{"iotrace/internal/sim.(*Config).CanonicalString", "/src/internal/sim/canon.go"}}, "iotrace"},
		{[]frame{{"iotrace/internal/trace.parseASCII", "/src/internal/trace/io.go"}}, "trace"},
		{[]frame{{"iotrace/internal/workload.Generate", "/src/internal/workload/gen.go"}}, "apps"},
		// Runtime helpers and system calls belong to their caller.
		{[]frame{
			{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"},
			{"encoding/json.(*encodeState).string", "/go/src/encoding/json/encode.go"},
		}, "json"},
		{[]frame{
			{"syscall.Syscall", "/go/src/syscall/syscall_linux.go"},
			{"internal/poll.(*FD).Write", "/go/src/internal/poll/fd_unix.go"},
			{"net.(*conn).Write", "/go/src/net/net.go"},
		}, "net"},
		{[]frame{
			{"crypto/internal/fips140/sha256.blockAVX2", "/go/src/crypto/internal/fips140/sha256/sha256block_amd64.s"},
		}, "sha256"},
		// Collector work wherever it runs, and the scheduler on its own.
		{[]frame{
			{"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcAssistAlloc", "/go/src/runtime/mgcmark.go"},
			{"iotrace/internal/sim.(*Simulator).post", "/src/internal/sim/event.go"},
		}, "runtime.gc"},
		{[]frame{{"runtime.futex", "/go/src/runtime/os_linux.go"}, {"runtime.schedule", "/go/src/runtime/proc.go"}}, "runtime"},
		{[]frame{{"main.render", "/src/benchmark/library.go"}}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%s): got %s, want %s", c.stack[0].fn, got, c.want)
		}
	}
	copyStack := []frame{
		{"runtime.duffcopy", "/go/src/runtime/duff_amd64.s"},
		{"iotrace/internal/sim.(*eventHeap).pop", "/src/internal/sim/event.go"},
	}
	if !isEventCopy(copyStack) || isEventCopy(copyStack[1:]) {
		t.Error("isEventCopy misclassifies the event heap's copy")
	}
}

// TestProfileRollUp profiles a real sweep and checks the roll-up finds
// the simulator's time.
func TestProfileRollUp(t *testing.T) {
	w, err := iotrace.New(iotrace.App("venus", 2))
	if err != nil {
		t.Fatal(err)
	}
	scens := iotrace.Grid{CacheMB: []int64{4}, BlockKB: []int64{4, 8}}.Scenarios()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Sweep(context.Background(), scens, 1); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	tot := profileTotals{}
	if err := tot.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var sim float64
	for _, l := range []string{"sim.engine", "sim.cache", "sim.volume"} {
		sim += tot[l]
	}
	if tot[totalKey] <= 0 || sim < tot[totalKey]/2 {
		t.Errorf("simulator layers hold %.2f s of %.2f s profiled, want most of it: %v", sim, tot[totalKey], tot)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not run by the benchmark", w.Name)
		}
	}
	match := func(kind string, listed []metric, defs []metricDef) {
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for name, unit := range got {
			if want[name] != unit {
				t.Errorf("%s metric %s (%s) in BENCHMARK.json is not reported as such", kind, name, unit)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %s is reported but not listed in BENCHMARK.json", kind, name)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
}
