package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"iotrace"
)

// serviceGrid is the iosimd workload's sweep over the uploaded forma
// trace: default configuration, eight cache/block cells.
var serviceGrid = iotrace.GridSpec{
	CacheMB: []int64{8, 16, 32, 64},
	BlockKB: []int64{4, 8},
}

// Each round's warm phase lasts window/serviceWarmShare. Rounds repeat
// until the window is spent and at least warmRequests warm requests
// (enough for ten of them to lie beyond the 99th percentile) and
// serviceSetups set-ups have been timed.
const (
	serviceWarmShare = 40
	warmRequests     = 1000
)

// service is one running iosimd instance on a loopback listener.
type service struct {
	srv  *iotrace.Server
	hs   *http.Server
	url  string
	dir  string
	done chan error // Serve's return value
}

// startService starts a server with a one-wide simulation pool.
func startService(dir string) (*service, error) {
	srv, err := iotrace.NewServer(iotrace.ServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it, and removes its data.
func (s *service) close() error {
	err := s.hs.Close()
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, s.srv.Close(), os.RemoveAll(s.dir))
}

// client is one closed-loop client on one kept-alive connection.
type client struct {
	hc *http.Client
	r  *run
}

// do sends one request and returns the response body; a non-200 status
// is a failed operation.
func (c *client) do(method, url string, body []byte) ([]byte, error) {
	c.r.attempted++
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.r.failed++
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	if err != nil {
		c.r.failed++
		return nil, err
	}
	return b, nil
}

func (c *client) stats(s *service) (map[string]int64, error) {
	b, err := c.do(http.MethodGet, s.url+"/stats", nil)
	if err != nil {
		return nil, err
	}
	var st map[string]int64
	return st, json.Unmarshal(b, &st)
}

// serviceInput is the trace the workload uploads, made before the clock
// starts, with what the benchmark knows about it.
type serviceInput struct {
	path    string
	body    []byte
	digest  string
	records int64 // all records
	logical int64 // logical (request) records
}

func makeServiceInput(dir string, seed uint64) (serviceInput, error) {
	w, err := iotrace.New(iotrace.App("forma", 1), iotrace.Seed(seed))
	if err != nil {
		return serviceInput{}, err
	}
	recs := w.Procs[0].Records
	in := serviceInput{path: filepath.Join(dir, "forma.trace"), records: int64(len(recs))}
	in.logical = countTrace(w).logical
	if err := iotrace.SaveTraceFile(in.path, "ascii", recs); err != nil {
		return serviceInput{}, err
	}
	if in.body, err = os.ReadFile(in.path); err != nil {
		return serviceInput{}, err
	}
	sum := sha256.Sum256(in.body)
	in.digest = hex.EncodeToString(sum[:])
	return in, nil
}

// serviceRound is what one round measured.
type serviceRound struct {
	setup, cold time.Duration
	coldCPU     float64 // process CPU seconds of the cold sweep
	warmCPU     float64 // and of the warm phase
	warm        []time.Duration
	coldBody    []byte
	cells       []cellView
	raw         []json.RawMessage
	afterWarm   map[string]int64
}

// runService runs the iosimd workload in rounds, each against a fresh
// server: set-up (start and upload), one cold sweep whose cells all
// miss, then back-to-back identical warm sweeps served from the cache.
func runService(ctx context.Context, r *run) error {
	in, err := makeServiceInput(r.dir, r.seed)
	if err != nil {
		return fmt.Errorf("iosimd input: %w", err)
	}
	reqBody, err := json.Marshal(iotrace.SweepRequest{Trace: "forma", Grid: serviceGrid})
	if err != nil {
		return err
	}
	grid, err := serviceGrid.Grid(iotrace.DefaultConfig())
	if err != nil {
		return err
	}
	scens := grid.Scenarios()
	c := &client{r: r, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
	defer c.hc.CloseIdleConnections()

	var rounds []serviceRound
	var live *service
	defer func() {
		if live != nil {
			live.close()
		}
	}()
	roundsFor := func(traced bool) ([]serviceRound, error) {
		var out []serviceRound
		start := time.Now()
		for {
			if live != nil {
				if err := live.close(); err != nil {
					return nil, err
				}
				live = nil
				c.hc.CloseIdleConnections()
			}
			dir := filepath.Join(r.dir, fmt.Sprintf("iosimd-%d", len(rounds)+len(out)))
			var rd serviceRound
			var err error
			live, rd, err = r.serviceRound(c, dir, in, reqBody, len(scens), traced)
			if err != nil {
				return nil, err
			}
			out = append(out, rd)
			warm := 0
			for _, o := range out {
				warm += len(o.warm)
			}
			if time.Since(start)+rd.setup+rd.cold+sum(rd.warm) > r.window && warm >= warmRequests && len(out) >= serviceSetups {
				return out, nil
			}
		}
	}
	if rounds, err = roundsFor(false); err != nil {
		return err
	}
	var setups, colds, warm []time.Duration
	var coldCPU []float64
	var warmCPU float64
	for _, rd := range rounds {
		warmCPU += rd.warmCPU
		setups = append(setups, rd.setup)
		colds = append(colds, rd.cold)
		coldCPU = append(coldCPU, rd.coldCPU)
		warm = append(warm, rd.warm...)
	}
	logf("iosimd: %d rounds, median set-up %.3f s, cold sweep %.3f s; set-ups %.3f; cold sweeps %.3f",
		len(rounds), median(seconds(setups)), median(seconds(colds)), seconds(setups), seconds(colds))
	for _, rd := range rounds[1:] {
		if !bytes.Equal(rd.coldBody, rounds[0].coldBody) {
			r.check(errors.New("iosimd: a fresh server served a different cold sweep"))
			break
		}
	}
	r.check(checkLibraryCell(ctx, in, scens, rounds[0].raw))

	if r.tr != nil {
		traced, err := roundsFor(true)
		if err != nil {
			return err
		}
		var tcold []float64
		for _, rd := range traced {
			tcold = append(tcold, rd.coldCPU)
		}
		r.tr.overhead(coldCPU, tcold)
		r.serviceLayers(traced, in)
	}
	r.set("setup_s", median(seconds(setups)))
	r.set("sweep_s", median(seconds(colds)))
	r.set("sweep_cpu_s", median(coldCPU))
	r.printWarm(warm, warmCPU)
	// The latency samples grow with host speed: keep them out of the
	// live heap.
	warm = nil
	for i := range rounds {
		rounds[i].warm = nil
	}
	r.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(live)
	return nil
}

// serviceRound runs one round against a fresh server, which it returns
// still running unless the round failed.
func (r *run) serviceRound(c *client, dir string, in serviceInput, reqBody []byte, cells int, traced bool) (s *service, rd serviceRound, err error) {
	defer func() {
		if err != nil && s != nil {
			s.close()
			s = nil
		}
	}()
	tr := r.tr
	if !traced {
		tr = nil
	}
	err = tr.phase("setup", func() error {
		start := time.Now()
		boot := tr.begin("svc.start", -1)
		var err error
		s, err = startService(dir)
		tr.end(boot)
		if err != nil {
			return err
		}
		up := tr.begin("svc.upload", -1)
		b, err := c.do(http.MethodPost, s.url+"/traces?name=forma&format=ascii", in.body)
		tr.end(up)
		rd.setup = time.Since(start)
		if err != nil {
			return err
		}
		var info iotrace.TraceInfo
		if err := json.Unmarshal(b, &info); err != nil {
			return fmt.Errorf("upload response: %w", err)
		}
		r.check(checkUpload(info, in.digest, in.records))
		return nil
	})
	if err != nil {
		return
	}
	tr.count("setup", 1)

	err = tr.phase("sweep", func() error {
		cpu := processCPU()
		start := time.Now()
		cold := tr.begin("svc.cold_sweep", -1)
		b, err := c.do(http.MethodPost, s.url+"/sweep", reqBody)
		tr.end(cold)
		rd.cold = time.Since(start)
		rd.coldCPU = processCPU() - cpu
		rd.coldBody = b
		return err
	})
	if err != nil {
		return
	}
	tr.count("sweep", 1)
	var cellsErr error
	rd.cells, rd.raw, cellsErr = parseSweep(rd.coldBody, cells)
	if rd.cells == nil {
		return s, rd, cellsErr
	}
	r.check(cellsErr)
	r.attempted += int64(cells)
	for _, cv := range rd.cells {
		if cv.Error != "" {
			r.failed++
		}
	}
	afterCold, err := c.stats(s)
	if err != nil {
		return
	}

	err = tr.phase("warm", func() error {
		cpu := processCPU()
		defer func() { rd.warmCPU = processCPU() - cpu }()
		begin := time.Now()
		for i := 0; time.Since(begin) < r.window/serviceWarmShare; i++ {
			start := time.Now()
			req := tr.begin("svc.warm_sweep", -1)
			b, err := c.do(http.MethodPost, s.url+"/sweep", reqBody)
			tr.end(req)
			rd.warm = append(rd.warm, time.Since(start))
			if err != nil {
				return err
			}
			if !bytes.Equal(b, rd.coldBody) {
				r.check(fmt.Errorf("iosimd: warm response %d differs from the cold one", i))
			}
		}
		return nil
	})
	if err != nil {
		return
	}
	tr.count("warm", len(rd.warm))
	if rd.afterWarm, err = c.stats(s); err != nil {
		return
	}
	r.check(checkExecuted(afterCold, rd.afterWarm, cells))
	return s, rd, nil
}

// checkLibraryCell sweeps one served scenario through the library, on
// the same trace file, and compares the bytes.
func checkLibraryCell(ctx context.Context, in serviceInput, scens []iotrace.Scenario, served []json.RawMessage) error {
	opts, err := iotrace.ImportOpts("ascii", "")
	if err != nil {
		return err
	}
	w, err := iotrace.New(iotrace.ImportedFile("forma", in.path, opts...))
	if err != nil {
		return err
	}
	i := len(scens) - 1 // the largest cache: the cheapest cell
	res, err := w.Sweep(ctx, scens[i:i+1], 1)
	if err != nil {
		return err
	}
	return checkServedMatchesLibrary(served[i], res[0])
}

// printWarm prints the warm requests' latency and the process's CPU
// time per warm request. None of these figures repeated between runs on
// a shared machine, so they stay out of the result line (see README.md).
func (r *run) printWarm(lat []time.Duration, cpu float64) {
	ms := seconds(lat)
	var total float64
	for i := range ms {
		ms[i] *= 1e3
		total += ms[i]
	}
	fmt.Fprintf(r.out, "warm requests %d: mean %.6f ms, p50 %.6f ms, p99 %.6f ms, CPU %.6f ms per request (not gated)\n",
		len(ms), total/float64(len(ms)), median(ms), percentile(ms, 99), cpu/float64(len(ms))*1e3)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
