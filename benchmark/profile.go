package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers are the rows of the per-layer table, in order. Each one's self
// time is reported as <layer>.self_s.
var layers = []string{
	"apps", "trace", "iotrace",
	"sim.engine", "sim.cache", "sim.volume", "sim.backbone", "sim.fault",
	"svc", "json", "net", "sha256",
	"runtime.gc", "runtime", "other",
}

// Keys of profileTotals that are not layers.
const (
	totalKey = "#total" // all CPU time
	evictKey = "#evict" // time with (*cache).evictLRUClean on the stack
	copyKey  = "#copy"  // event copies: runtime.duffcopy called from post or the event heap
)

// layerOf maps a function's package and source file to its layer. It is
// the file-to-layer map README.md gives.
func layerOf(pkg, file string) string {
	switch pkg {
	case "iotrace/internal/apps", "iotrace/internal/workload":
		return "apps"
	case "iotrace/internal/trace":
		return "trace"
	case "iotrace/internal/sim":
		switch file {
		case "cache.go", "front.go":
			return "sim.cache"
		case "disk.go", "sched.go", "pending.go":
			return "sim.volume"
		case "backbone.go":
			return "sim.backbone"
		case "fault.go":
			return "sim.fault"
		case "canon.go":
			return "iotrace" // scenario identity: part of keying a cell
		}
		return "sim.engine"
	case "iotrace/internal/stats":
		return "sim.engine"
	case "iotrace/internal/cray":
		return "sim.volume"
	case "iotrace/internal/svc":
		return "svc"
	case "iotrace":
		if file == "server.go" || file == "api.go" {
			return "svc"
		}
		return "iotrace"
	case "encoding/json":
		return "json"
	case "encoding/hex":
		return "sha256"
	}
	switch {
	case strings.HasPrefix(pkg, "iotrace/"):
		return "iotrace"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "net"
	case strings.HasPrefix(pkg, "crypto/"):
		return "sha256"
	}
	return "other"
}

// helperPkgs are packages whose time belongs to their caller: the
// runtime's own helpers (copies, allocation, maps), system calls, and
// general-purpose libraries. A sample is attributed to the first frame,
// from the leaf up, outside them.
var helperPkgs = map[string]bool{
	"runtime": true, "sync": true, "sync/atomic": true, "syscall": true, "os": true,
	"io": true, "io/fs": true, "bufio": true, "bytes": true, "strings": true,
	"strconv": true, "fmt": true, "sort": true, "slices": true, "maps": true,
	"unicode": true, "unicode/utf8": true, "math": true, "math/bits": true,
	"time": true, "errors": true, "context": true, "reflect": true, "iter": true,
	"hash": true, "encoding/binary": true, "container/heap": true, "path": true,
	"path/filepath": true, "compress/gzip": true, "compress/flate": true,
}

func isHelper(pkg string) bool {
	return helperPkgs[pkg] || strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime/")
}

// gcFuncs mark a stack as garbage-collector work wherever they appear.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
	"runtime.deductSweepCredit", "runtime.wbBufFlush", "runtime.gcMarkDone",
	"runtime.gcStart", "runtime.forEachP", "runtime.stopTheWorldWithSema",
}

// frame is one function on a sampled stack.
type frame struct{ fn, file string }

// pkgOf returns the import path of a symbol such as
// "iotrace/internal/sim.(*cache).evictLRUClean".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// classify returns the layer a stack's time is attributed to, leaf
// first.
func classify(stack []frame) string {
	for _, f := range stack {
		for _, g := range gcFuncs {
			if f.fn == g {
				return "runtime.gc"
			}
		}
	}
	for _, f := range stack {
		if pkg := pkgOf(f.fn); !isHelper(pkg) {
			if pkg == "main" {
				return "other"
			}
			return layerOf(pkg, path.Base(f.file))
		}
	}
	return "runtime"
}

// isEventCopy reports whether a stack is an event being copied: the
// runtime's block copy called from the engine's post or event heap.
func isEventCopy(stack []frame) bool {
	if len(stack) < 2 || stack[0].fn != "runtime.duffcopy" {
		return false
	}
	caller := stack[1].fn
	return strings.HasPrefix(caller, "iotrace/internal/sim.") &&
		(strings.HasSuffix(caller, ".post") || strings.Contains(caller, "(*eventHeap)."))
}

// profileTotals sums CPU seconds per layer (and the special keys above)
// over any number of profiles.
type profileTotals map[string]float64

// add decodes one gzipped pprof CPU profile and adds its samples.
func (t profileTotals) add(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		sec := float64(s.nanos) / 1e9
		t[classify(stack)] += sec
		t[totalKey] += sec
		if isEventCopy(stack) {
			t[copyKey] += sec
		}
		for _, f := range stack {
			if f.fn == "iotrace/internal/sim.(*cache).evictLRUClean" {
				t[evictKey] += sec
				break
			}
		}
	}
	return nil
}

// profile is the part of a pprof profile the roll-up reads.
type profile struct {
	samples []sample
	locs    map[uint64][]frame // location id -> frames, inlined callee first
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// parseProfile decodes the protobuf form of a pprof profile: sample
// types (field 1), samples (2), locations (4), functions (5) and the
// string table (6).
func parseProfile(b []byte) (*profile, error) {
	type line struct{ fn uint64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types   [][2]uint64 // (type, unit) string indexes
		samples []rawSample
		locs    = map[uint64][]line{}
		funcs   = map[uint64][2]uint64{} // id -> (name, filename) string indexes
		strs    []string
	)
	err := eachField(b, func(num int, v uint64, payload []byte) error {
		switch num {
		case 1:
			var vt [2]uint64
			err := eachField(payload, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2:
			var s rawSample
			err := eachField(payload, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, p)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, p); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var lines []line
			err := eachField(payload, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5:
			var id uint64
			var nf [2]uint64
			err := eachField(payload, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nf[0] = v
				case 4:
					nf[1] = v
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6:
			strs = append(strs, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, vt := range types {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu/nanoseconds sample type")
	}
	p := &profile{locs: map[uint64][]frame{}}
	for id, lines := range locs {
		frames := make([]frame, len(lines))
		for i, l := range lines {
			nf := funcs[l.fn]
			frames[i] = frame{fn: str(nf[0]), file: str(nf[1])}
		}
		p.locs[id] = frames
	}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, fmt.Errorf("sample with %d values, want more than %d", len(s.values), cpu)
		}
		p.samples = append(p.samples, sample{locs: s.locs, nanos: s.values[cpu]})
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: with the
// value of a varint field, or the payload of a length-delimited one.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed
// (payload) or not (v).
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
