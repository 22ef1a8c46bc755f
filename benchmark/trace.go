package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"iotrace"
)

// tracer records what a traced run measures from outside the program:
// spans around calls into each layer, a CPU profile and runtime
// counters per phase. All of it stays in memory until the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	epoch  time.Time
	spans  []span
	phases map[string]*phaseStats
	order  []string // phase names in first-seen order
	// overheadPct is the traced calls' CPU time over the untraced ones'.
	overheadPct float64
}

// span is one timed call: name, start and end relative to the run's
// start, and the index of the enclosing span (-1 for none).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// phaseStats accumulates one phase over all its invocations. Its
// figures are reported per unit of work: per set-up, per sweep, or per
// warm request, whatever the phase's callers count into Units.
type phaseStats struct {
	Units   float64       `json:"units"`
	Samples profileTotals `json:"samples"`
	AllocMB float64       `json:"alloc_mb"`
	GCs     float64       `json:"gc_cycles"`
	CPUS    float64       `json:"cpu_s"`
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), phases: map[string]*phaseStats{}}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// stats returns the named phase's accumulator, creating it if needed.
func (t *tracer) stats(name string) *phaseStats {
	ps := t.phases[name]
	if ps == nil {
		ps = &phaseStats{Samples: profileTotals{}}
		t.phases[name] = ps
		t.order = append(t.order, name)
	}
	return ps
}

// count adds n units of work to the named phase.
func (t *tracer) count(name string, n int) {
	if t != nil {
		t.stats(name).Units += float64(n)
	}
}

// adopt adds what a child process's tracer recorded: its spans, placed
// at the moment the child was launched, and its set-up phase.
func (t *tracer) adopt(c childSetup, launched time.Time) {
	if t == nil {
		return
	}
	offset, base := launched.Sub(t.epoch), len(t.spans)
	for _, s := range c.Spans {
		s.Start += offset
		s.End += offset
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	if c.Phase != nil {
		ps := t.stats("setup")
		ps.Units += c.Phase.Units
		ps.AllocMB += c.Phase.AllocMB
		ps.GCs += c.Phase.GCs
		ps.CPUS += c.Phase.CPUS
		for k, v := range c.Phase.Samples {
			ps.Samples[k] += v
		}
	}
}

// runtimeCounters are read before and after each phase.
var runtimeCounters = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

// phase runs one timed phase: after a forced collection, so that the
// collector's state at its start does not depend on what ran before,
// and in a traced run under a CPU profile, adding the profile and the
// change in the runtime counters to the named phase.
func (t *tracer) phase(name string, fn func() error) error {
	runtime.GC()
	return t.measure(name, fn)
}

// measure runs fn, in a traced run under a CPU profile, adding the
// profile and the change in the runtime counters to the named phase.
func (t *tracer) measure(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	before := make([]metrics.Sample, len(runtimeCounters))
	for i, n := range runtimeCounters {
		before[i].Name = n
	}
	after := append([]metrics.Sample(nil), before...)
	var prof bytes.Buffer
	metrics.Read(before)
	cpu0 := processCPU()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	cpu := processCPU() - cpu0
	metrics.Read(after)

	ps := t.stats(name)
	ps.AllocMB += float64(after[0].Value.Uint64()-before[0].Value.Uint64()) / (1 << 20)
	ps.GCs += float64(after[1].Value.Uint64() - before[1].Value.Uint64())
	ps.CPUS += cpu
	if perr := ps.Samples.add(prof.Bytes()); perr != nil && err == nil {
		err = fmt.Errorf("%s profile: %w", name, perr)
	}
	return err
}

// overhead records how much more CPU the traced calls took than the
// untraced calls of the same pattern, as the ratio of their medians.
func (t *tracer) overhead(untraced, traced []float64) {
	u, tr := median(untraced), median(traced)
	if u > 0 {
		t.overheadPct = (tr - u) / u * 100
	}
}

// finish turns what the tracer recorded into the per-layer metrics and
// prints two tables: self time per layer and unit of work of each
// phase, and each layer's share of each phase's CPU.
func (t *tracer) finish(r *run) {
	for _, d := range perLayer {
		if _, ok := r.values[d.name]; !ok {
			r.values[d.name] = 0
		}
	}
	// Spans timed around public calls.
	for span, metric := range map[string]string{
		"apps.generate":       "apps.generate_s",
		"iotrace.fingerprint": "iotrace.fingerprint_s",
		"svc.upload":          "svc.upload_s",
	} {
		if d := t.durations(span); len(d) > 0 {
			r.set(metric, median(d))
		}
	}
	r.set("trace_overhead_pct", t.overheadPct)

	var phases []string
	for _, ph := range t.order {
		if t.phases[ph].Units > 0 {
			phases = append(phases, ph)
		}
	}
	header := func(title string) {
		fmt.Fprintf(r.out, "\n%s\n%-14s", title, "layer")
		for _, ph := range phases {
			fmt.Fprintf(r.out, " %12s", fmt.Sprintf("%s/%d", ph, int(t.phases[ph].Units)))
		}
	}
	// Self time per layer and unit of work, summed over the phases.
	header("self time per layer, milliseconds per set-up, sweep or warm request")
	fmt.Fprintf(r.out, " %12s\n", "total")
	for _, l := range layers {
		fmt.Fprintf(r.out, "%-14s", l)
		var self float64
		for _, ph := range phases {
			ps := t.phases[ph]
			v := ps.Samples[l] / ps.Units
			self += v
			fmt.Fprintf(r.out, " %12.3f", v*1e3)
		}
		fmt.Fprintf(r.out, " %12.3f\n", self*1e3)
		r.set(l+".self_s", self)
	}
	header("share of each phase's profiled CPU, percent")
	fmt.Fprintln(r.out)
	for _, l := range layers {
		fmt.Fprintf(r.out, "%-14s", l)
		for _, ph := range phases {
			s := t.phases[ph].Samples
			fmt.Fprintf(r.out, " %12.1f", 100*s[l]/max(s[totalKey], 1e-9))
		}
		fmt.Fprintln(r.out)
	}
	fmt.Fprintln(r.out)
	for _, ph := range phases {
		ps := t.phases[ph]
		r.set("runtime.alloc_mb."+ph, ps.AllocMB/ps.Units)
		r.set("runtime.gc_cycles."+ph, ps.GCs/ps.Units)
		r.set("runtime.cpu_s."+ph, ps.CPUS/ps.Units)
	}
	if sw := t.phases["sweep"]; sw != nil && sw.Samples[totalKey] > 0 {
		r.set("sim.cache.evict_clean_pct", 100*sw.Samples[evictKey]/sw.Samples[totalKey])
		r.set("sim.engine.event_copy_pct", 100*sw.Samples[copyKey]/sw.Samples[totalKey])
	}
}

// writeSpans writes the recorded spans as JSON.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// simCounts records the simulated counts of one sweep, summed over its
// cells, and the host-speed figures of the traced sweeps.
func (r *run) simCounts(res []iotrace.SweepResult, ref traceRef, traced []time.Duration) {
	results := make([]*iotrace.Result, len(res))
	for i, c := range res {
		results[i] = c.Result
	}
	r.setSimCounts(results)
	cells := r.tr.durations("sim.cell")
	fmt.Fprintln(r.out, "\nhost seconds per cell, last traced sweep")
	for i, d := range cells[len(cells)-len(res):] {
		fmt.Fprintf(r.out, "  %-50s %8.3f\n", res[i].Scenario.Name, d)
	}
	r.set("sim.cell_s", median(cells))
	r.set("sim.cell_max_s", slices.Max(cells))
	r.setSimRates(results, ref.logical, median(seconds(traced)))
}

// setSimRates records simulated requests and seconds per host second of
// a sweep that took host seconds.
func (r *run) setSimRates(results []*iotrace.Result, logical int64, host float64) {
	if host <= 0 {
		return
	}
	var simulated float64
	for _, res := range results {
		simulated += res.WallSeconds()
	}
	r.set("sim.requests_per_host_s", float64(logical)*float64(len(results))/host)
	r.set("sim.simulated_s_per_host_s", simulated/host)
}

// setSimCounts records the counts the simulator returns, summed over
// the cells of one sweep (maxima for the queue high-water marks).
func (r *run) setSimCounts(results []*iotrace.Result) {
	var c struct {
		wall, idle, busy, seek, qwait, degraded, bbWait                   float64
		hits, misses, prefetch, wasted, stalls, absorbed, through, bypass int64
		reads, writes, qwaits, flushes, transfers, retried, restarts      int64
		maxDepth, maxQueue                                                int
	}
	for _, res := range results {
		c.wall += res.WallSeconds()
		c.idle += res.IdleSeconds()
		k := res.Cache
		c.hits += k.ReadHitReqs
		c.misses += k.ReadMissReqs
		c.prefetch += k.PrefetchOps
		c.wasted += k.WastedPrefetch
		c.stalls += k.SpaceStalls
		c.absorbed += k.WriteAbsorbed
		c.through += k.WriteThrough
		c.bypass += k.Bypasses
		c.reads += res.Disk.Reads
		c.writes += res.Disk.Writes
		c.busy += res.Disk.BusySec
		for _, v := range res.Volumes {
			c.seek += v.SeekSec
		}
		for _, q := range res.VolumeQueues {
			c.qwaits += q.Waits
			c.qwait += q.WaitSec
			c.maxDepth = max(c.maxDepth, q.MaxDepth)
		}
		c.flushes += res.Flush.Runs
		if bb := res.Backbone; bb != nil {
			c.transfers += bb.Transfers
			c.bbWait += bb.WaitSec
			c.maxQueue = max(c.maxQueue, bb.MaxQueue)
		}
		for _, p := range res.Procs {
			c.retried += p.RetriedRequests
			c.restarts += p.Restarts
		}
		c.degraded += res.DegradedSec
	}
	for name, v := range map[string]float64{
		"sim.engine.simulated_s":     c.wall,
		"sim.engine.idle_s":          c.idle,
		"sim.cache.read_hits":        float64(c.hits),
		"sim.cache.read_misses":      float64(c.misses),
		"sim.cache.prefetch_ops":     float64(c.prefetch),
		"sim.cache.wasted_prefetch":  float64(c.wasted),
		"sim.cache.space_stalls":     float64(c.stalls),
		"sim.cache.write_absorbed":   float64(c.absorbed),
		"sim.cache.write_through":    float64(c.through),
		"sim.cache.bypasses":         float64(c.bypass),
		"sim.volume.reads":           float64(c.reads),
		"sim.volume.writes":          float64(c.writes),
		"sim.volume.busy_s":          c.busy,
		"sim.volume.seek_s":          c.seek,
		"sim.volume.max_queue_depth": float64(c.maxDepth),
		"sim.volume.queue_waits":     float64(c.qwaits),
		"sim.volume.queue_wait_s":    c.qwait,
		"sim.volume.flush_runs":      float64(c.flushes),
		"sim.backbone.transfers":     float64(c.transfers),
		"sim.backbone.wait_s":        c.bbWait,
		"sim.backbone.max_queue":     float64(c.maxQueue),
		"sim.fault.retried_requests": float64(c.retried),
		"sim.fault.restarts":         float64(c.restarts),
		"sim.fault.degraded_s":       c.degraded,
	} {
		r.set(name, v)
	}
}

// serviceLayers records the iosimd workload's per-layer figures: the
// simulated counts of the cold sweep, the service counters, and a timed
// decode of the uploaded file.
func (r *run) serviceLayers(traced []serviceRound, in serviceInput) {
	rd := traced[0]
	results := make([]*iotrace.Result, len(rd.cells))
	for i, c := range rd.cells {
		results[i] = c.Result
	}
	r.setSimCounts(results)
	var colds []time.Duration
	for _, t := range traced {
		colds = append(colds, t.cold)
	}
	cold := median(seconds(colds))
	r.setSimRates(results, in.logical, cold)
	r.set("svc.cold_cell_s", cold/float64(len(results)))
	r.set("svc.warm_response_bytes", float64(len(rd.coldBody)))
	st := rd.afterWarm
	r.set("svc.executed_cells", float64(st["executed_cells"]))
	r.set("svc.cache_hits", float64(st["cache_hits"]))
	r.set("svc.coalesced", float64(st["coalesced"]))

	for i := 0; i < 3; i++ {
		dec := r.tr.begin("trace.decode", -1)
		recs, err := iotrace.ImportFile(in.path, iotrace.WithFormat(iotrace.FormatASCII))
		r.tr.end(dec)
		r.check(err)
		if int64(len(recs)) != in.records {
			r.check(fmt.Errorf("ImportFile decoded %d records, the file has %d", len(recs), in.records))
		}
	}
	if d := median(r.tr.durations("trace.decode")); d > 0 {
		r.set("trace.decode_s", d)
		r.set("trace.decode_mb_per_s", float64(len(in.body))/(1<<20)/d)
	}
}
