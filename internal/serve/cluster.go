package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"efficsense/internal/cache"
	"efficsense/internal/cluster"
	"efficsense/internal/core"
	"efficsense/internal/experiments"
)

// Fleet mode. Each node owns a segment of the evaluation keyspace via
// the consistent-hash ring in internal/cluster; the clusterCache below
// is the glue between the sweep engine and the peer group. On a miss
// for a remotely-owned key the node asks the owner (POST
// /internal/peer/eval) to produce the result — served hot from the
// owner's cache or computed there once, with the owner's singleflight
// collapsing concurrent fills from the whole fleet — before falling
// back to computing locally. Peer failures degrade, never error: the
// fleet's worst case is the single-node cost.

// peerEvalSpec is the payload inside a PeerRequest: everything the
// owner needs to evaluate the point on a cold cache. Options travel as
// the public wire spec, so the owner resolves them through exactly the
// submission pipeline and a fleet with identical defaults derives an
// identical evaluator fingerprint — which is what the response-key
// check verifies.
type peerEvalSpec struct {
	Options *OptionsSpec `json:"options,omitempty"`
	Point   PointSpec    `json:"point"`
}

// peerEvalResult is the payload inside a PeerResponse. Result reuses
// the WAL row encoding (exact float64 round-trip); Hit reports the
// owner served it without a fresh evaluation.
type peerEvalResult struct {
	Result walResult `json:"r"`
	Hit    bool      `json:"hit,omitempty"`
}

// optionsSpecOf inverts OptionsSpec.apply: a spec that sets every
// field, so the receiving node's own defaults cannot skew the
// evaluation a peer request describes.
func optionsSpecOf(o experiments.Options) *OptionsSpec {
	return &OptionsSpec{
		Scenario:      &o.Scenario,
		Seed:          &o.Seed,
		Records:       &o.Records,
		TrainRecords:  &o.TrainRecords,
		NoiseSteps:    &o.NoiseSteps,
		Workers:       &o.Workers,
		Epochs:        &o.Epochs,
		MinAccuracy:   &o.MinAccuracy,
		WindowSeconds: &o.WindowSeconds,
	}
}

// clusterCache wraps the shared bounded LRU with ring-aware fills. It
// implements dse.Cache, dse.PointFlight and dse.Partitioned: local
// reads and writes delegate to the LRU; a miss on a remotely-owned key
// tries the owner before computing. One clusterCache exists per engine
// option set (it carries that suite's option spec for the peer wire),
// all sharing one LRU and one peer client.
type clusterCache struct {
	lru   *cache.LRU
	peers *cluster.Peers
	spec  *OptionsSpec
}

func newClusterCache(lru *cache.LRU, peers *cluster.Peers, opts experiments.Options) *clusterCache {
	return &clusterCache{lru: lru, peers: peers, spec: optionsSpecOf(opts)}
}

// Get and Put implement dse.Cache against the shared local store.
func (c *clusterCache) Get(key string) (core.Result, bool) { return c.lru.Get(key) }
func (c *clusterCache) Put(key string, r core.Result)      { c.lru.Put(key, r) }

// Owned implements dse.Partitioned for the batch dispatcher.
func (c *clusterCache) Owned(key string) bool { return c.peers.Owned(key) }

// DoPoint implements dse.PointFlight. Locally-owned keys (and every key
// once peering is disabled — the serving side of a peer request, so a
// skewed membership view can bounce a key at most one hop) take the
// LRU's singleflight exactly as in single-node mode. For a
// remotely-owned key the local cache still answers warm hits; a cold
// miss asks the owner and stores the verified result (hit=true: this
// node spent a lookup, not an evaluation). Any failure on that path
// degrades to local compute under the singleflight — never an error
// row, never a lost point.
func (c *clusterCache) DoPoint(ctx context.Context, key string, p core.DesignPoint, fn func() core.Result) (core.Result, bool, bool) {
	owner, remote := c.peers.Owner(key)
	if !remote || cluster.PeeringDisabled(ctx) {
		return c.lru.Do(key, fn)
	}
	if r, ok := c.lru.Get(key); ok {
		return r, true, false
	}
	if r, ok := c.fetchRemote(ctx, owner, key, p); ok {
		c.lru.Put(key, r)
		return r, true, false
	}
	return c.lru.Do(key, fn)
}

// fetchRemote asks owner for key's result. false means "compute
// locally": transport and protocol failures are already accounted by
// the peer client, payload-level ones (undecodable result, an
// error-carrying row — the owner degrades too, but its error must not
// become ours) count here.
func (c *clusterCache) fetchRemote(ctx context.Context, owner cluster.Member, key string, p core.DesignPoint) (core.Result, bool) {
	spec, err := json.Marshal(peerEvalSpec{Options: c.spec, Point: pointSpecOf(p)})
	if err != nil {
		c.peers.CountError()
		return core.Result{}, false
	}
	payload, err := c.peers.Fetch(ctx, owner, key, spec)
	if err != nil {
		return core.Result{}, false
	}
	var pr peerEvalResult
	if err := json.Unmarshal(payload, &pr); err != nil {
		c.peers.CountError()
		return core.Result{}, false
	}
	res := pr.Result.result()
	if res.Err != nil {
		c.peers.CountError()
		return core.Result{}, false
	}
	if pr.Hit {
		c.peers.CountHit()
	} else {
		c.peers.CountMiss()
	}
	return res, true
}

// PeerEvaluate serves one peer-protocol request: evaluate (or serve
// warm) the design point the spec describes, returning the result, the
// owner-side cache fingerprint for the response key, and whether it was
// a cache hit. It runs the same synchronous step as /v1/evaluate, with
// two differences: peer traffic is node-to-node plumbing on behalf of a
// request already admitted elsewhere, so it skips tenant admission, and
// it runs with peering disabled so a skewed ring cannot bounce the key
// onward.
func (m *Manager) PeerEvaluate(ctx context.Context, spec peerEvalSpec) (core.Result, string, bool, error) {
	scn, err := m.Scenario(spec.Options)
	if err != nil {
		return core.Result{}, "", false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	p, err := spec.Point.DesignPoint(scn)
	if err != nil {
		return core.Result{}, "", false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	rs, cached, engine, err := m.evaluate(cluster.WithoutPeering(ctx), spec.Options, []core.DesignPoint{p}, 0, false)
	if err != nil {
		return core.Result{}, "", false, err
	}
	key := ""
	if f, ok := engine.(interface{ EvaluatorID() string }); ok {
		key = f.EvaluatorID() + "/" + p.Key()
	}
	return rs[0], key, cached[0], nil
}

// ClusterStatus snapshots the peer group, when fleet mode is on.
func (m *Manager) ClusterStatus() (cluster.Status, bool) {
	if m.cfg.Cluster == nil {
		return cluster.Status{}, false
	}
	return m.cfg.Cluster.Status(), true
}

// handlePeerEval is the serving side of the peer protocol. The response
// carries this node's own fingerprint for the point, so a requester
// with a skewed view detects the mismatch and computes locally instead
// of caching a result evaluated under different options.
func (s *Server) handlePeerEval(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "reading peer request: %v", err)
		return
	}
	req, err := cluster.DecodePeerRequest(body)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	var spec peerEvalSpec
	if err := json.Unmarshal(req.Spec, &spec); err != nil {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "parsing peer spec: %v", err)
		return
	}
	res, key, hit, err := s.mgr.PeerEvaluate(r.Context(), spec)
	switch {
	case errors.Is(err, ErrShuttingDown):
		s.error(w, r, http.StatusServiceUnavailable, CodeShuttingDown, "%v", err)
		return
	case errors.Is(err, ErrBadRequest):
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	case err != nil:
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	if key == "" {
		// An engine without a fingerprint cannot prove what it answered.
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "engine exposes no evaluator identity")
		return
	}
	payload, err := json.Marshal(peerEvalResult{Result: walResultOf(res), Hit: hit})
	if err == nil {
		payload, err = cluster.EncodePeerResponse(key, payload)
	}
	if err != nil {
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "encoding peer response: %v", err)
		return
	}
	s.mgr.cfg.Cluster.CountFill()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// ClusterMemberJSON is one member's row in GET /v1/cluster.
type ClusterMemberJSON struct {
	Name              string  `json:"name"`
	Addr              string  `json:"addr"`
	Self              bool    `json:"self,omitempty"`
	RingShare         float64 `json:"ring_share"`
	Requests          int64   `json:"requests"`
	Errors            int64   `json:"errors"`
	ConsecutiveErrors int64   `json:"consecutive_errors"`
	LastError         string  `json:"last_error,omitempty"`
	LatencyP50Ms      float64 `json:"latency_p50_ms"`
	LatencyP99Ms      float64 `json:"latency_p99_ms"`
}

// ClusterStatusJSON is the GET /v1/cluster body: the ring as this node
// sees it, group-wide peering accounting, and per-peer health.
type ClusterStatusJSON struct {
	Self       string              `json:"self"`
	VNodes     int                 `json:"vnodes"`
	RingSize   int                 `json:"ring_size"`
	PeerHits   int64               `json:"peer_hits"`
	PeerMisses int64               `json:"peer_misses"`
	PeerFills  int64               `json:"peer_fills"`
	PeerErrors int64               `json:"peer_errors"`
	Members    []ClusterMemberJSON `json:"members"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.mgr.ClusterStatus()
	if !ok {
		s.error(w, r, http.StatusNotFound, CodeNotFound, "fleet mode is not enabled")
		return
	}
	out := ClusterStatusJSON{
		Self:       st.Self.Name,
		VNodes:     st.VNodes,
		RingSize:   st.RingSize,
		PeerHits:   st.Hits,
		PeerMisses: st.Misses,
		PeerFills:  st.Fills,
		PeerErrors: st.Errors,
		Members:    make([]ClusterMemberJSON, 0, len(st.Peers)),
	}
	for _, ps := range st.Peers {
		out.Members = append(out.Members, ClusterMemberJSON{
			Name:              ps.Member.Name,
			Addr:              ps.Member.Addr,
			Self:              ps.Self,
			RingShare:         ps.Share,
			Requests:          ps.Requests,
			Errors:            ps.Errors,
			ConsecutiveErrors: ps.Consecutive,
			LastError:         ps.LastError,
			LatencyP50Ms:      ps.Latency.Quantile(0.50) * 1000,
			LatencyP99Ms:      ps.Latency.Quantile(0.99) * 1000,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// jobNode extracts the accepting node's name from a cluster-mode job ID
// ("sweep-<node>-<seq>" / "search-<node>-<seq>"). Single-node IDs
// ("sweep-7") and anything else return "".
func jobNode(id string) string {
	rest, ok := strings.CutPrefix(id, "sweep-")
	if !ok {
		rest, ok = strings.CutPrefix(id, "search-")
	}
	if !ok {
		return ""
	}
	dash := strings.LastIndexByte(rest, '-')
	if dash <= 0 {
		return ""
	}
	if _, err := strconv.ParseUint(rest[dash+1:], 10, 64); err != nil {
		return ""
	}
	return rest[:dash]
}

// redirectJob implements sticky routing: jobs — and above all their SSE
// event streams — live on the node that accepted them. A request for a
// job this node does not know, whose ID names another live member,
// answers 307 with a Location on that member; anything else falls
// through to the caller's 404. Reports whether it redirected.
func (s *Server) redirectJob(w http.ResponseWriter, r *http.Request) bool {
	peers := s.mgr.cfg.Cluster
	if peers == nil {
		return false
	}
	node := jobNode(r.PathValue("id"))
	if node == "" || node == peers.Self().Name {
		return false
	}
	m, ok := peers.Lookup(node)
	if !ok || m.Addr == "" {
		return false
	}
	target := strings.TrimSuffix(m.Addr, "/") + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
	return true
}
