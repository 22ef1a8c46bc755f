package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"iotrace"
)

// The checks compare the program's outputs against what the benchmark
// counts itself or against properties the simulation method must have.
// Each returns nil or an error naming every violation it found.

// checkFig8 checks a Figure 8 sweep: read accounting, compute
// independent of I/O configuration, and the figure's shape.
func checkFig8(ref traceRef, res []iotrace.SweepResult) error {
	if err := requireResults(res); err != nil {
		return err
	}
	return errors.Join(
		checkReadAccounting(ref, res),
		checkComputeInvariant(res),
		checkIdleFallsWithCache(res),
	)
}

// checkManyproc checks the deep-queue mix: read accounting and compute
// in the fault-free cells, per-volume sums, and availability.
func checkManyproc(ref traceRef, res []iotrace.SweepResult) error {
	if err := requireResults(res); err != nil {
		return err
	}
	var healthy []iotrace.SweepResult
	for _, c := range res {
		if c.Scenario.Config.Faults == nil {
			healthy = append(healthy, c)
		}
	}
	if len(healthy) == 0 || len(healthy) == len(res) {
		return fmt.Errorf("manyproc: want fault-free and faulted cells, got %d of %d fault-free", len(healthy), len(res))
	}
	return errors.Join(
		checkReadAccounting(ref, healthy),
		checkComputeInvariant(healthy),
		checkVolumeSums(res),
		checkAvailability(res),
	)
}

func requireResults(res []iotrace.SweepResult) error {
	if len(res) == 0 {
		return errors.New("empty sweep")
	}
	for _, c := range res {
		if c.Err != nil || c.Result == nil {
			return fmt.Errorf("%s: no result (%v)", c.Scenario.Name, c.Err)
		}
	}
	return nil
}

// checkReadAccounting: every logical read record is one cache read
// request, a hit or a miss. (A restart replays records, so faulted
// cells are left out by the caller.)
func checkReadAccounting(ref traceRef, res []iotrace.SweepResult) error {
	var want int64
	for _, n := range ref.logicalRead {
		want += n
	}
	var errs []error
	for _, c := range res {
		got := c.Result.Cache.ReadHitReqs + c.Result.Cache.ReadMissReqs
		if got != want {
			errs = append(errs, fmt.Errorf("%s: read hits+misses %d, trace has %d logical reads", c.Scenario.Name, got, want))
		}
	}
	return errors.Join(errs...)
}

// checkComputeInvariant: a process's CPU time cannot depend on the I/O
// configuration, so it is the same in every cell.
func checkComputeInvariant(res []iotrace.SweepResult) error {
	first := res[0].Result.Procs
	var errs []error
	for _, c := range res[1:] {
		procs := c.Result.Procs
		if len(procs) != len(first) {
			errs = append(errs, fmt.Errorf("%s: %d processes, want %d", c.Scenario.Name, len(procs), len(first)))
			continue
		}
		for i := range procs {
			if procs[i].PID != first[i].PID || procs[i].CPUSec != first[i].CPUSec {
				errs = append(errs, fmt.Errorf("%s: pid %d CPU %v s, want pid %d CPU %v s as in %s",
					c.Scenario.Name, procs[i].PID, procs[i].CPUSec, first[i].PID, first[i].CPUSec, res[0].Scenario.Name))
			}
		}
	}
	return errors.Join(errs...)
}

// checkIdleFallsWithCache is Figure 8's shape: at each block size, idle
// time never rises as the cache grows, and the largest cache leaves
// under a tenth of the smallest cache's idle time.
func checkIdleFallsWithCache(res []iotrace.SweepResult) error {
	byBlock := map[int64][]iotrace.SweepResult{}
	for _, c := range res {
		b := c.Scenario.Config.BlockBytes
		byBlock[b] = append(byBlock[b], c)
	}
	var errs []error
	for block, cells := range byBlock {
		sort.Slice(cells, func(i, j int) bool {
			return cells[i].Scenario.Config.CacheBytes < cells[j].Scenario.Config.CacheBytes
		})
		if len(cells) < 2 {
			errs = append(errs, fmt.Errorf("block %d KB: %d cache sizes, want at least 2", block>>10, len(cells)))
			continue
		}
		for i := 1; i < len(cells); i++ {
			prev, cur := cells[i-1].Result.IdleSeconds(), cells[i].Result.IdleSeconds()
			if cur > prev {
				errs = append(errs, fmt.Errorf("%s: idle %.3f s rose from %.3f s at %s",
					cells[i].Scenario.Name, cur, prev, cells[i-1].Scenario.Name))
			}
		}
		small, large := cells[0].Result.IdleSeconds(), cells[len(cells)-1].Result.IdleSeconds()
		if !(large < small/10) {
			errs = append(errs, fmt.Errorf("block %d KB: largest cache idles %.3f s, not under a tenth of the smallest's %.3f s",
				block>>10, large, small))
		}
	}
	return errors.Join(errs...)
}

// checkVolumeSums: per-volume reads and writes add up to the aggregate.
func checkVolumeSums(res []iotrace.SweepResult) error {
	var errs []error
	for _, c := range res {
		var reads, writes int64
		for _, v := range c.Result.Volumes {
			reads += v.Reads
			writes += v.Writes
		}
		if reads != c.Result.Disk.Reads || writes != c.Result.Disk.Writes {
			errs = append(errs, fmt.Errorf("%s: volumes sum to %d reads, %d writes; aggregate %d, %d",
				c.Scenario.Name, reads, writes, c.Result.Disk.Reads, c.Result.Disk.Writes))
		}
	}
	return errors.Join(errs...)
}

// checkAvailability: a fault-free cell is available all the time, and a
// cell with a fault plan is not.
func checkAvailability(res []iotrace.SweepResult) error {
	var errs []error
	for _, c := range res {
		a := c.Result.Availability
		if c.Scenario.Config.Faults == nil && a != 1 {
			errs = append(errs, fmt.Errorf("%s: availability %v without faults, want 1", c.Scenario.Name, a))
		}
		if c.Scenario.Config.Faults != nil && !(a < 1) {
			errs = append(errs, fmt.Errorf("%s: availability %v under a fault plan, want below 1", c.Scenario.Name, a))
		}
	}
	return errors.Join(errs...)
}

// checkUpload: the service stored the bytes it was sent and decoded the
// records the benchmark wrote.
func checkUpload(info iotrace.TraceInfo, digest string, records int64) error {
	var errs []error
	if info.Digest != digest {
		errs = append(errs, fmt.Errorf("upload digest %s, sha256 of the file is %s", info.Digest, digest))
	}
	if info.Records != records {
		errs = append(errs, fmt.Errorf("upload decoded %d records, the file has %d", info.Records, records))
	}
	return errors.Join(errs...)
}

// cellView is the part of a served cell the checks read.
type cellView struct {
	Scenario string              `json:"scenario"`
	Key      iotrace.ScenarioKey `json:"key"`
	Error    string              `json:"error"`
	Result   *iotrace.Result     `json:"result"`
}

// parseSweep decodes a non-streaming POST /sweep body and checks that it
// holds want cells, none failed, with valid and distinct keys. It
// returns the cells and their raw bytes.
func parseSweep(body []byte, want int) ([]cellView, []json.RawMessage, error) {
	var resp iotrace.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("sweep response: %w", err)
	}
	if len(resp.Cells) != want {
		return nil, nil, fmt.Errorf("sweep response has %d cells, want %d", len(resp.Cells), want)
	}
	cells := make([]cellView, len(resp.Cells))
	seen := map[iotrace.ScenarioKey]int{}
	var errs []error
	for i, raw := range resp.Cells {
		if err := json.Unmarshal(raw, &cells[i]); err != nil {
			return nil, nil, fmt.Errorf("cell %d: %w", i, err)
		}
		c := cells[i]
		switch {
		case c.Error != "":
			errs = append(errs, fmt.Errorf("cell %s: %s", c.Scenario, c.Error))
		case c.Result == nil:
			errs = append(errs, fmt.Errorf("cell %s: no result", c.Scenario))
		case !c.Key.Valid():
			errs = append(errs, fmt.Errorf("cell %s: invalid key %q", c.Scenario, c.Key))
		}
		if j, dup := seen[c.Key]; dup {
			errs = append(errs, fmt.Errorf("cells %d and %d share key %s", j, i, c.Key))
		}
		seen[c.Key] = i
	}
	return cells, resp.Cells, errors.Join(errs...)
}

// checkExecuted: the cold sweep simulated every cell once, and nothing
// after it simulated anything.
func checkExecuted(afterCold, afterWarm map[string]int64, cells int) error {
	var errs []error
	if afterCold["executed_cells"] != int64(cells) {
		errs = append(errs, fmt.Errorf("executed_cells %d after the cold sweep, want %d", afterCold["executed_cells"], cells))
	}
	if afterWarm["executed_cells"] != afterCold["executed_cells"] {
		errs = append(errs, fmt.Errorf("executed_cells moved from %d to %d during the warm phase",
			afterCold["executed_cells"], afterWarm["executed_cells"]))
	}
	return errors.Join(errs...)
}

// checkServedMatchesLibrary: a served cell is byte-identical to the
// library's own rendering of the same scenario.
func checkServedMatchesLibrary(served []byte, lib iotrace.SweepResult) error {
	if lib.Err != nil {
		return fmt.Errorf("library sweep of %s: %w", lib.Scenario.Name, lib.Err)
	}
	want, err := json.Marshal(iotrace.NewResultView(lib.Scenario.Name, lib.Key, lib.Result))
	if err != nil {
		return err
	}
	if !bytes.Equal(served, want) {
		return fmt.Errorf("served cell %s differs from the library's rendering (%d vs %d bytes)",
			lib.Scenario.Name, len(served), len(want))
	}
	return nil
}
