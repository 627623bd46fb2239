package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"efficsense/internal/serve"
)

// Failure causes. Every operation either succeeds or fails with exactly
// one of these; nothing is retried.
const (
	causeTransport = "transport"
	causeStatus    = "status"
	causeErrRow    = "err_row"
	causePartial   = "partial"
)

var causes = []string{causeTransport, causeStatus, causeErrRow, causePartial}

// opError is a failed operation with its cause.
type opError struct {
	cause string
	err   error
}

func (e *opError) Error() string { return e.cause + ": " + e.err.Error() }

func fail(cause string, format string, args ...interface{}) *opError {
	return &opError{cause: cause, err: fmt.Errorf(format, args...)}
}

// row is one result as a client sees it: the NDJSON/SSE columns, or a
// /v1/evaluate response. Floats decode exactly (encoding/json writes the
// shortest representation that round-trips); a nil pointer is a JSON
// null, which the server writes for a non-finite value.
type row struct {
	Arch     string              `json:"arch"`
	Bits     int                 `json:"bits"`
	Noise    float64             `json:"noise_vrms"`
	M        int                 `json:"m"`
	CHold    float64             `json:"chold_f"`
	SNRdB    *float64            `json:"snr_db"`
	Accuracy *float64            `json:"accuracy"`
	TotalW   *float64            `json:"total_w"`
	AreaCaps *float64            `json:"area_caps"`
	PowerW   map[string]*float64 `json:"-"`
	Err      string              `json:"err"`
}

// evalResponse is the /v1/evaluate single-point body.
type evalResponse struct {
	Point    serve.PointSpec     `json:"point"`
	SNRdB    *float64            `json:"snr_db"`
	Accuracy *float64            `json:"accuracy"`
	TotalW   *float64            `json:"total_w"`
	PowerW   map[string]*float64 `json:"power_w"`
	AreaCaps *float64            `json:"area_caps"`
	Err      string              `json:"err"`
}

func (e evalResponse) row() row {
	return row{
		Arch: e.Point.Arch, Bits: e.Point.Bits, Noise: e.Point.LNANoise,
		M: e.Point.M, CHold: e.Point.CHold,
		SNRdB: e.SNRdB, Accuracy: e.Accuracy, TotalW: e.TotalW,
		AreaCaps: e.AreaCaps, PowerW: e.PowerW, Err: e.Err,
	}
}

// client drives one server over a keep-alive loopback connection pool.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// evaluate posts one /v1/evaluate request. ttfb is the time until the
// response headers arrived, total the time until the body was read.
func (c *client) evaluate(body []byte) (r row, ttfb, total time.Duration, oe *opError) {
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, 0, 0, fail(causeTransport, "evaluate: %v", err)
	}
	ttfb = time.Since(start)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	total = time.Since(start)
	if err != nil {
		return r, 0, 0, fail(causeTransport, "evaluate body: %v", err)
	}
	if resp.StatusCode/100 != 2 {
		return r, 0, 0, fail(causeStatus, "evaluate: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var er evalResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return r, 0, 0, fail(causeTransport, "evaluate: decoding response: %v", err)
	}
	if er.Err != "" {
		return r, 0, 0, fail(causeErrRow, "evaluate: error row: %s", er.Err)
	}
	return er.row(), ttfb, total, nil
}

// sweepObs is one completed sweep as the client saw it.
type sweepObs struct {
	start    time.Time
	latency  time.Duration   // submit → last NDJSON byte
	firstRow time.Duration   // submit → first SSE point event
	rowLat   []time.Duration // submit → each SSE point event
	rows     []row           // the NDJSON result rows
	sseRows  []row           // the SSE point rows
}

// sweep submits one sweep, follows its SSE stream to the terminal event
// and reads its NDJSON results.
func (c *client) sweep(body []byte) (obs sweepObs, oe *opError) {
	obs.start = time.Now()
	resp, err := c.hc.Post(c.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return obs, fail(causeTransport, "submit: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return obs, fail(causeTransport, "submit body: %v", err)
	}
	if resp.StatusCode/100 != 2 {
		return obs, fail(causeStatus, "submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return obs, fail(causeTransport, "submit: decoding status: %v", err)
	}

	if oe := c.followEvents(st.EventsURL, &obs); oe != nil {
		return obs, oe
	}

	resp, err = c.hc.Get(c.base + st.ResultsURL)
	if err != nil {
		return obs, fail(causeTransport, "results: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return obs, fail(causeStatus, "results: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return obs, fail(causeTransport, "results: decoding row: %v", err)
		}
		if r.Err != "" {
			return obs, fail(causeErrRow, "results: error row for %s: %s", r.Arch, r.Err)
		}
		obs.rows = append(obs.rows, r)
	}
	if err := sc.Err(); err != nil {
		return obs, fail(causeTransport, "results: %v", err)
	}
	obs.latency = time.Since(obs.start)
	return obs, nil
}

// doneEvent is the payload of a job's terminal SSE event.
type doneEvent struct {
	State   string `json:"state"`
	Partial bool   `json:"partial"`
	Errors  int    `json:"errors"`
	Error   string `json:"error"`
}

// followEvents reads a job's SSE stream until its "done" event.
func (c *client) followEvents(path string, obs *sweepObs) *opError {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return fail(causeTransport, "events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fail(causeStatus, "events: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "point":
				lat := time.Since(obs.start)
				if len(obs.rowLat) == 0 {
					obs.firstRow = lat
				}
				obs.rowLat = append(obs.rowLat, lat)
				var r row
				if err := json.Unmarshal(data, &r); err != nil {
					return fail(causeTransport, "events: decoding point: %v", err)
				}
				if r.Err != "" {
					return fail(causeErrRow, "events: error row for %s: %s", r.Arch, r.Err)
				}
				obs.sseRows = append(obs.sseRows, r)
			case "done":
				var d doneEvent
				if err := json.Unmarshal(data, &d); err != nil {
					return fail(causeTransport, "events: decoding done: %v", err)
				}
				if d.State != "completed" {
					return fail(causeStatus, "events: sweep ended %s: %s", d.State, d.Error)
				}
				if d.Partial || d.Errors > 0 {
					return fail(causePartial, "events: partial sweep (%d degraded points)", d.Errors)
				}
				return nil
			}
		case line == "":
			event = ""
		}
	}
	if err := sc.Err(); err != nil {
		return fail(causeTransport, "events: %v", err)
	}
	return fail(causeTransport, "events: stream ended before the done event")
}
