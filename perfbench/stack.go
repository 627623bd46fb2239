package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/serve"
	"efficsense/internal/wal"
)

// stack is one in-process daemon, wired the way cmd/efficsensed wires
// it: serve.NewSuiteEngines, serve.NewManager with a write-ahead log,
// serve.NewServer, served over a real loopback listener.
type stack struct {
	dir    string
	lru    *cache.LRU
	wal    *wal.Log
	mgr    *serve.Manager
	srv    *http.Server
	base   string
	served chan error
}

// startStack builds and starts a daemon for the workload. With a tracer
// the engines, cache and evaluator are the traced wrappers and the
// handler sits behind the tracing middleware; without one the wiring is
// exactly the production one.
func startStack(w workload, sc scale, workdir string, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(workdir, "wal-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	var engines serve.EngineFunc
	if tr == nil {
		se := serve.NewSuiteEngines(w.cacheEntries)
		engines, st.lru = se.Engine, se.Cache()
	} else {
		st.lru = cache.New(w.cacheEntries)
		engines = tr.tracedSuiteEngines(st.lru)
	}
	walLog, records, err := wal.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	st.wal = walLog
	mgr, err := serve.NewManager(serve.ManagerConfig{
		Defaults:             daemonDefaults(sc),
		Engines:              engines,
		Cache:                st.lru,
		MaxConcurrentJobs:    2,
		JobTTL:               15 * time.Minute,
		MaxSweepPoints:       100000,
		MaxSearchEvaluations: 20000,
		EvalTimeout:          2 * time.Minute,
		Tenancy: serve.TenantPolicy{Default: serve.TenantLimits{
			SubmitBurst: 1, EvalBurst: 1,
		}},
		WAL: walLog,
	})
	if err != nil {
		walLog.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	if err := mgr.Recover(records); err != nil {
		walLog.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	st.mgr = mgr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	var h http.Handler = serve.NewServer(mgr, nil)
	if tr != nil {
		h = tr.middleware(h)
	}
	st.srv = &http.Server{Handler: h}
	st.base = "http://" + ln.Addr().String()
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// stop drains the manager (which compacts and closes the journal), shuts
// the HTTP server down, waits for it and removes the journal directory.
func (st *stack) stop() error {
	var errs []error
	if st.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, st.mgr.Shutdown(ctx))
		cancel()
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := st.srv.Shutdown(ctx); err != nil {
			st.srv.Close()
			errs = append(errs, err)
		}
		cancel()
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// measureSetup builds a daemon and times it from construction to the
// first successful response for the workload's option set: a
// /v1/evaluate of the setup probe, which forces scenario synthesis,
// resampling, detector training and evaluator precompute. The returned
// row is checked like every other.
func measureSetup(w workload, sc scale, workdir string, tr *tracer) (*stack, time.Duration, row, error) {
	runtime.GC()
	debug.FreeOSMemory()
	start := time.Now()
	st, err := startStack(w, sc, workdir, tr)
	if err != nil {
		return nil, 0, row{}, err
	}
	c := newClient(st.base, 1)
	defer c.close()
	body, err := json.Marshal(serve.EvaluateRequest{Options: w.options(sc), Point: w.setupProbe()})
	if err != nil {
		st.stop()
		return nil, 0, row{}, err
	}
	r, _, _, oe := c.evaluate(body)
	d := time.Since(start)
	if oe != nil {
		st.stop()
		return nil, 0, row{}, oe
	}
	return st, d, r, nil
}

// evalBody renders a single-point /v1/evaluate request.
func evalBody(w workload, sc scale, p serve.PointSpec) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(serve.EvaluateRequest{Options: w.options(sc), Point: p})
	return buf.Bytes()
}

// sweepBody renders one sweep-cold submission.
func sweepBody(w workload, sc scale, noise float64) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(serve.SweepRequest{Options: w.options(sc), Space: sweepSpace(noise)})
	return buf.Bytes()
}
