package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"efficsense/internal/cluster"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// stallEngine never completes a point: every run waits for its context
// and reports the context's error, so a deadline case renders the same
// bytes on every run and every host.
type stallEngine struct{}

func (stallEngine) RunWithHook(ctx context.Context, _ []core.DesignPoint, _ func(dse.Event)) ([]core.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (stallEngine) Metrics() dse.Snapshot { return dse.Snapshot{} }

// newContractServer serves /v1/evaluate over the given engine resolver
// and tenancy policy.
func newContractServer(t *testing.T, engines EngineFunc, tenancy TenantPolicy) (*httptest.Server, *Manager) {
	t.Helper()
	mgr, err := NewManager(ManagerConfig{Engines: engines, Tenancy: tenancy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, nil))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		ts.Close()
	})
	return ts, mgr
}

// wireCase is one pinned exchange: the exact status, Retry-After
// header and body bytes a request must produce.
type wireCase struct {
	name, url, body string
	status          int
	retryAfter      string // "" = header absent
	want            string
}

func (c wireCase) check(t *testing.T) {
	t.Helper()
	resp := postJSON(t, c.url, c.body)
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != c.status {
		t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != c.retryAfter {
		t.Errorf("%s: Retry-After %q, want %q", c.name, got, c.retryAfter)
	}
	// The one clock-dependent byte run: a rate-limit message states the
	// bucket's exact wait, which shrinks with the time since the token
	// was spent.
	got := bucketWait.ReplaceAllString(string(raw), "(retry after WAIT)")
	if got != c.want {
		t.Errorf("%s: body\n%q\nwant\n%q", c.name, got, c.want)
	}
}

var bucketWait = regexp.MustCompile(`\(retry after [0-9hms.]+\)`)

// errBody renders the v1 error envelope exactly as the server writes it.
func errBody(code ErrorCode, msg string) string {
	raw, err := json.MarshalIndent(errorJSON{Error: ErrorDetail{Code: code, Message: msg}}, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(raw) + "\n"
}

// TestEvaluateWireContract pins POST /v1/evaluate byte for byte, for
// the single-object and the batch body alike: status, error code,
// Retry-After presence and the full response body of every outcome
// class — success, validation, tenant rate limit, drain, deadline and
// engine failure. A single point that misses its deadline answers 504;
// a batch degrades the same deadline into error rows.
func TestEvaluateWireContract(t *testing.T) {
	okEngines := func() EngineFunc {
		eng, err := dse.NewSweep(&slowEval{}, dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"))
		if err != nil {
			t.Fatal(err)
		}
		return func(experiments.Options) (Engine, error) { return eng, nil }
	}
	ok, _ := newContractServer(t, okEngines(), TenantPolicy{})
	stall, _ := newContractServer(t,
		func(experiments.Options) (Engine, error) { return stallEngine{}, nil }, TenantPolicy{})
	broken, _ := newContractServer(t,
		func(experiments.Options) (Engine, error) { return nil, errors.New("suite exploded") }, TenantPolicy{})
	// One token that refills in 1000 s: after the priming request every
	// evaluation waits just under 1000 s, advertised as Retry-After 1000.
	limited, _ := newContractServer(t, okEngines(),
		TenantPolicy{Default: TenantLimits{EvalRate: 0.001, EvalBurst: 1}})
	draining, drainMgr := newContractServer(t, okEngines(), TenantPolicy{})
	if err := drainMgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	const (
		pt    = `{"arch":"baseline","bits":8,"lna_noise":1e-6}`
		pt2   = `{"arch":"baseline","bits":4,"lna_noise":2e-6}`
		one   = `{"point":` + pt + `}`
		batch = `{"points":[` + pt + `,` + pt2 + `]}`
	)
	const okPoint = `{
  "point": {
    "arch": "baseline",
    "bits": 8,
    "lna_noise": 0.000001
  },
  "snr_db": 24,
  "accuracy": 0.99,
  "total_w": 0.008,
  "area_caps": 512
}
`
	const okBatch = `{
  "partial": false,
  "count": 2,
  "errors": 0,
  "results": [
    {
      "point": {
        "arch": "baseline",
        "bits": 8,
        "lna_noise": 0.000001
      },
      "snr_db": 24,
      "accuracy": 0.99,
      "total_w": 0.008,
      "area_caps": 512
    },
    {
      "point": {
        "arch": "baseline",
        "bits": 4,
        "lna_noise": 0.000002
      },
      "snr_db": 12,
      "accuracy": 0.99,
      "total_w": 0.008,
      "area_caps": 256
    }
  ]
}
`
	const deadlineBatch = `{
  "partial": true,
  "count": 2,
  "errors": 2,
  "results": [
    {
      "point": {
        "arch": "baseline",
        "bits": 8,
        "lna_noise": 0.000001
      },
      "snr_db": 0,
      "accuracy": 0,
      "total_w": 0,
      "area_caps": 0,
      "err": "context deadline exceeded"
    },
    {
      "point": {
        "arch": "baseline",
        "bits": 4,
        "lna_noise": 0.000002
      },
      "snr_db": 0,
      "accuracy": 0,
      "total_w": 0,
      "area_caps": 0,
      "err": "context deadline exceeded"
    }
  ]
}
`
	const (
		badPoint    = `{"arch":"warp","bits":8,"lna_noise":1e-6}`
		badScenario = `"options":{"scenario":"no-such-workload"}`
		rateMsg     = `serve: tenant rate limit exceeded: tenant "default" over its evaluation rate (retry after WAIT) (retry after ~1000s)`
		scnMsg      = `scenario: unknown scenario "no-such-workload" (registered: [ecg-telemonitoring eeg-epilepsy])`
		archMsg     = `scenario eeg-epilepsy: unknown architecture "warp" (want one of [baseline cs cs-digital cs-active])`
	)
	postJSON(t, limited.URL+"/v1/evaluate", one).Body.Close() // spends the token
	cases := []wireCase{
		{"point ok", ok.URL, one, 200, "", okPoint},
		{"points ok", ok.URL, batch, 200, "", okBatch},
		{"point bad point", ok.URL, `{"point":` + badPoint + `}`, 400, "",
			errBody(CodeBadRequest, "point: "+archMsg)},
		{"points bad point", ok.URL, `{"points":[` + pt + `,` + badPoint + `]}`, 400, "",
			errBody(CodeBadRequest, "points[1]: "+archMsg)},
		{"point unknown scenario", ok.URL, `{` + badScenario + `,"point":` + pt + `}`, 400, "",
			errBody(CodeBadRequest, scnMsg)},
		{"points unknown scenario", ok.URL, `{` + badScenario + `,"points":[` + pt + `]}`, 400, "",
			errBody(CodeBadRequest, scnMsg)},
		{"point and points", ok.URL, `{"point":` + pt + `,"points":[` + pt + `]}`, 400, "",
			errBody(CodeBadRequest, "provide either point or points, not both")},
		{"empty points", ok.URL, `{"points":[]}`, 400, "",
			errBody(CodeBadRequest, "points must not be empty")},
		{"point rate limited", limited.URL, one, 429, "1000", errBody(CodeRateLimited, rateMsg)},
		{"points rate limited", limited.URL, batch, 429, "1000", errBody(CodeRateLimited, rateMsg)},
		{"point draining", draining.URL, one, 503, "10",
			errBody(CodeShuttingDown, "serve: shutting down")},
		{"points draining", draining.URL, batch, 503, "10",
			errBody(CodeShuttingDown, "serve: shutting down")},
		{"point deadline", stall.URL, `{"point":` + pt + `,"timeout_ms":1}`, 504, "",
			errBody(CodeDeadline, "evaluation exceeded the deadline")},
		{"points deadline", stall.URL, `{"points":[` + pt + `,` + pt2 + `],"timeout_ms":1}`, 200, "",
			deadlineBatch},
		{"point engine failure", broken.URL, one, 500, "",
			errBody(CodeInternal, "engine: suite exploded")},
		{"points engine failure", broken.URL, batch, 500, "",
			errBody(CodeInternal, "engine: suite exploded")},
	}
	for _, c := range cases {
		c.url += "/v1/evaluate"
		c.check(t)
	}
}

// TestClusterPeerEvalContract pins the serving side of the peer
// protocol, a node-to-node contract with its own status mapping: a
// malformed frame and an unusable spec are 400s, a draining owner
// answers 503 without a Retry-After (the requester computes locally
// instead of waiting), and a served fill is keyed by the owner's own
// fingerprint — its EvaluatorID and the point's key.
func TestClusterPeerEvalContract(t *testing.T) {
	node := newFleetNode(t, "a", &slowEval{}, nil)
	installMembership(node)
	url := node.srv.URL + cluster.PeerPath

	p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 1e-6}
	key := "test-eval/" + p.Key()
	frame := func(spec string) string {
		raw, err := cluster.EncodePeerRequest(key, []byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	const archMsg = `scenario eeg-epilepsy: unknown architecture "warp" (want one of [baseline cs cs-digital cs-active])`
	good := frame(`{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`)

	resp := postJSON(t, url, good)
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill status %d: %s", resp.StatusCode, raw)
	}
	pr, err := cluster.DecodePeerResponse(raw)
	if err != nil {
		t.Fatalf("fill response does not decode: %v\n%s", err, raw)
	}
	if pr.Key != key {
		t.Fatalf("fill keyed %q, want the owner's fingerprint %q", pr.Key, key)
	}
	var res peerEvalResult
	if err := json.Unmarshal(pr.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Result.result(); got.Point != p || got.MeanSNRdB != 24 || got.Err != nil || res.Hit {
		t.Fatalf("cold fill payload: %+v (hit %v)", got, res.Hit)
	}

	cases := []wireCase{
		{"malformed frame", url, `{"k":`, 400, "",
			errBody(CodeBadRequest, "cluster: parse peer request: unexpected EOF")},
		{"bad spec", url, frame(`{"point":{"arch":"warp","bits":8,"lna_noise":1e-6}}`), 400, "",
			errBody(CodeBadRequest, "serve: invalid request: "+archMsg)},
	}
	for _, c := range cases {
		c.check(t)
	}
	if err := node.mgr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wireCase{"draining", url, good, 503, "",
		errBody(CodeShuttingDown, "serve: shutting down")}.check(t)
	if !strings.Contains(string(raw), `"k":"`+key+`"`) {
		t.Fatalf("fill frame does not carry its key verbatim: %s", raw)
	}
}

// partialEngine completes the points listed in done (cached ones
// flagged), reporting them through the hook and returning ret — the
// completed results in input order, as a cancelled dse run does — with
// err.
type partialEngine struct {
	done, cached map[int]bool
	ret          func(pts []core.DesignPoint) []core.Result
	err          error
}

func (e partialEngine) RunWithHook(_ context.Context, pts []core.DesignPoint, hook func(dse.Event)) ([]core.Result, error) {
	for i, p := range pts {
		if e.done[i] {
			hook(dse.Event{Index: i, Point: p, Result: (&slowEval{}).Evaluate(p), Cached: e.cached[i]})
		}
	}
	return e.ret(pts), e.err
}

func (partialEngine) Metrics() dse.Snapshot { return dse.Snapshot{} }

// TestRunRowsPlacesCompletedResults: an early-ended run keeps the
// results of the points that completed, at their input index with
// their cached flag, and turns the rest into error rows carrying the
// run's error; results the hook cannot place are never misattributed.
func TestRunRowsPlacesCompletedResults(t *testing.T) {
	pts := []core.DesignPoint{
		{Arch: core.ArchBaseline, Bits: 4, LNANoise: 1e-6},
		{Arch: core.ArchBaseline, Bits: 5, LNANoise: 1e-6},
		{Arch: core.ArchBaseline, Bits: 6, LNANoise: 1e-6},
	}
	evaluated := func(idx ...int) func([]core.DesignPoint) []core.Result {
		return func(pts []core.DesignPoint) []core.Result {
			var rs []core.Result
			for _, i := range idx {
				rs = append(rs, (&slowEval{}).Evaluate(pts[i]))
			}
			return rs
		}
	}
	done := map[int]bool{0: true, 2: true}
	rows, cached, err := runRows(context.Background(), partialEngine{
		done: done, cached: map[int]bool{2: true},
		ret: evaluated(0, 2), err: context.DeadlineExceeded,
	}, pts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run error %v, want the deadline", err)
	}
	for i, r := range rows {
		if r.Point != pts[i] {
			t.Fatalf("row %d is point %+v, want %+v", i, r.Point, pts[i])
		}
		if done[i] != (r.Err == nil) {
			t.Fatalf("row %d: completed %v but err %v", i, done[i], r.Err)
		}
		if done[i] && r.MeanSNRdB != 3*float64(pts[i].Bits) {
			t.Fatalf("row %d carries the wrong result: %+v", i, r)
		}
		if r.Err != nil && !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("row %d error %v, want the run's", i, r.Err)
		}
	}
	if cached[0] || cached[1] || !cached[2] {
		t.Fatalf("cached flags %v, want [false false true]", cached)
	}

	// The hook saw two completions but the run returned one result:
	// every row degrades, none is guessed.
	rows, cached, err = runRows(context.Background(), partialEngine{
		done: done, cached: map[int]bool{2: true},
		ret: evaluated(2), err: context.DeadlineExceeded,
	}, pts)
	if err == nil {
		t.Fatal("unplaceable run reported no error")
	}
	for i, r := range rows {
		if r.Err == nil || cached[i] {
			t.Fatalf("unplaceable row %d not degraded: %+v cached %v", i, r, cached[i])
		}
	}

	// A run that returns no error but a short slice is an error too.
	rows, _, err = runRows(context.Background(), partialEngine{ret: evaluated(0)}, pts)
	if err == nil || len(rows) != len(pts) || rows[1].Err == nil {
		t.Fatalf("short run: err %v rows %+v", err, rows)
	}
}
