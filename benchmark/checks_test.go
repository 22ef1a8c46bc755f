package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotrace"
)

// Each check must pass on real output and fail once that output is
// tampered with.

// clone deep-copies the parts of a sweep the tampering touches.
func clone(res []iotrace.SweepResult) []iotrace.SweepResult {
	out := make([]iotrace.SweepResult, len(res))
	for i, c := range res {
		cp := *c.Result
		cp.Procs = append(cp.Procs[:0:0], cp.Procs...)
		cp.Volumes = append(cp.Volumes[:0:0], cp.Volumes...)
		c.Result = &cp
		out[i] = c
	}
	return out
}

func sweepFor(t *testing.T, spec libSpec, scens []iotrace.Scenario) (traceRef, []iotrace.SweepResult) {
	t.Helper()
	w, err := iotrace.New(spec.options(1)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Sweep(context.Background(), scens, 0)
	if err != nil {
		t.Fatal(err)
	}
	return countTrace(w), res
}

func expectFail(t *testing.T, name string, err error, want string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check passed on tampered output", name)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: got %v, want an error mentioning %q", name, err, want)
	}
}

func TestFig8Checks(t *testing.T) {
	// A cheap Figure 8 grid: the checks do not depend on the grid.
	scens := iotrace.Grid{CacheMB: []int64{4, 16, 64, 256}, BlockKB: []int64{8}}.Scenarios()
	ref, res := sweepFor(t, fig8, scens)
	if err := checkFig8(ref, res); err != nil {
		t.Fatalf("real output fails: %v", err)
	}

	bad := clone(res)
	bad[1].Result.Cache.ReadHitReqs++
	expectFail(t, "extra read hit", checkFig8(ref, bad), "logical reads")

	bad = clone(res)
	bad[2].Result.Procs[1].CPUSec += 0.01
	expectFail(t, "CPU time moved", checkFig8(ref, bad), "CPU")

	bad = clone(res)
	bad[2].Result.IdleTicks = bad[1].Result.IdleTicks + 1000
	expectFail(t, "idle rose", checkFig8(ref, bad), "rose")

	bad = clone(res)
	for _, c := range bad[1:] {
		c.Result.IdleTicks = bad[0].Result.IdleTicks / 5
	}
	expectFail(t, "largest cache idles too much", checkFig8(ref, bad), "tenth")

	bad = clone(res)
	bad[0].Err, bad[0].Result = fmt.Errorf("boom"), nil
	expectFail(t, "failed cell", checkFig8(ref, bad), "boom")
}

func TestManyprocChecks(t *testing.T) {
	// Two fault-free cells and one faulted cell of the real grid.
	all := manyproc.scenarios
	scens := []iotrace.Scenario{all[0], all[2], all[1]}
	if all[0].Config.Faults != nil || all[2].Config.Faults != nil || all[1].Config.Faults == nil {
		t.Fatal("grid order changed: cells 0 and 2 should be fault-free, cell 1 faulted")
	}
	ref, res := sweepFor(t, manyproc, scens)
	if err := checkManyproc(ref, res); err != nil {
		t.Fatalf("real output fails: %v", err)
	}

	bad := clone(res)
	bad[0].Result.Cache.ReadMissReqs--
	expectFail(t, "lost read miss", checkManyproc(ref, bad), "logical reads")

	bad = clone(res)
	bad[1].Result.Procs[5].CPUSec *= 1.001
	expectFail(t, "CPU time moved", checkManyproc(ref, bad), "CPU")

	bad = clone(res)
	bad[2].Result.Volumes[3].Writes++
	expectFail(t, "volume writes", checkManyproc(ref, bad), "volumes sum")

	bad = clone(res)
	bad[0].Result.Availability = 0.999
	expectFail(t, "healthy cell unavailable", checkManyproc(ref, bad), "without faults")

	bad = clone(res)
	bad[2].Result.Availability = 1
	expectFail(t, "faulted cell available", checkManyproc(ref, bad), "under a fault plan")

	expectFail(t, "no faulted cell", checkManyproc(ref, res[:2]), "faulted cells")
}

func TestUploadCheck(t *testing.T) {
	info := iotrace.TraceInfo{Digest: "abc", Records: 10}
	if err := checkUpload(info, "abc", 10); err != nil {
		t.Fatal(err)
	}
	expectFail(t, "digest", checkUpload(info, "abd", 10), "digest")
	expectFail(t, "records", checkUpload(info, "abc", 11), "records")
}

func TestExecutedCheck(t *testing.T) {
	cold := map[string]int64{"executed_cells": 8}
	if err := checkExecuted(cold, cold, 8); err != nil {
		t.Fatal(err)
	}
	expectFail(t, "cold count", checkExecuted(cold, cold, 9), "after the cold sweep")
	expectFail(t, "warm simulated", checkExecuted(cold, map[string]int64{"executed_cells": 9}, 8), "during the warm phase")
}

// TestServiceChecks runs the iosimd path on a small trace: the checks
// pass on what the server serves and fail on tampered responses.
func TestServiceChecks(t *testing.T) {
	dir := t.TempDir()
	w, err := iotrace.New(iotrace.App("ccm", 1))
	if err != nil {
		t.Fatal(err)
	}
	in := serviceInput{path: filepath.Join(dir, "ccm.trace"), records: int64(len(w.Procs[0].Records))}
	if err := iotrace.SaveTraceFile(in.path, "ascii", w.Procs[0].Records); err != nil {
		t.Fatal(err)
	}
	if in.body, err = os.ReadFile(in.path); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(in.body)
	in.digest = hex.EncodeToString(sum[:])

	s, err := startService(filepath.Join(dir, "srv"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	r := &run{values: map[string]float64{}}
	c := &client{r: r, hc: &http.Client{}}
	b, err := c.do(http.MethodPost, s.url+"/traces?name=forma&format=ascii", in.body)
	if err != nil {
		t.Fatal(err)
	}
	var info iotrace.TraceInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if err := checkUpload(info, in.digest, in.records); err != nil {
		t.Fatalf("real upload fails: %v", err)
	}
	expectFail(t, "digest", checkUpload(info, in.digest[1:]+"0", in.records), "digest")
	expectFail(t, "records", checkUpload(info, in.digest, in.records+1), "records")

	spec := iotrace.GridSpec{CacheMB: []int64{16, 64}}
	req, _ := json.Marshal(iotrace.SweepRequest{Trace: "forma", Grid: spec})
	body, err := c.do(http.MethodPost, s.url+"/sweep", req)
	if err != nil {
		t.Fatal(err)
	}
	_, raw, err := parseSweep(body, 2)
	if err != nil {
		t.Fatalf("real sweep fails: %v", err)
	}
	st, err := c.stats(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExecuted(st, st, 2); err != nil {
		t.Fatalf("real counters fail: %v", err)
	}
	expectFail(t, "cold count", checkExecuted(st, st, 3), "after the cold sweep")
	expectFail(t, "warm simulated", checkExecuted(st, map[string]int64{"executed_cells": 3}, 2), "during the warm phase")

	grid, err := spec.Grid(iotrace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLibraryCell(context.Background(), in, grid.Scenarios(), raw); err != nil {
		t.Fatalf("served cell differs from the library's: %v", err)
	}
	flipped := append(json.RawMessage(nil), raw[1]...)
	flipped[len(flipped)-2] ^= 1
	expectFail(t, "served bytes", checkLibraryCell(context.Background(), in, grid.Scenarios(),
		[]json.RawMessage{raw[0], flipped}), "differs")

	reframe := func(cells ...json.RawMessage) []byte {
		b, _ := json.Marshal(iotrace.SweepResponse{Trace: info.Digest, Cells: cells})
		return b
	}
	_, _, err = parseSweep(reframe(raw[0], raw[0]), 2)
	expectFail(t, "duplicate key", err, "share key")
	_, _, err = parseSweep(reframe(raw[0], json.RawMessage(`{"scenario":"x","error":"boom"}`)), 2)
	expectFail(t, "failed cell", err, "boom")
	badKey := json.RawMessage(strings.Replace(string(raw[1]), `"key":"sk-`, `"key":"sk-z`, 1))
	_, _, err = parseSweep(reframe(raw[0], badKey), 2)
	expectFail(t, "invalid key", err, "invalid key")
	_, _, err = parseSweep(reframe(raw[0]), 2)
	expectFail(t, "missing cell", err, "want 2")
}
