package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at smoke-test scale and returns the exit
// code, the report and the decoded last line.
func runTiny(t *testing.T, workload, trace string, extra ...string) (int, string, jsonResult) {
	t.Helper()
	args := append([]string{
		"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace,
		"-tiny", "-workdir", t.TempDir(),
	}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result (exit %d): %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, code, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), res
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if _, err := lookupWorkload(wl.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayerUnits))
	}
	for i, pl := range spec.PerLayer {
		if pl.Name != perLayerUnits[i][0] || pl.Unit != perLayerUnits[i][1] {
			t.Fatalf("per_layer[%d] = %s [%s], the benchmark reports %s [%s]",
				i, pl.Name, pl.Unit, perLayerUnits[i][0], perLayerUnits[i][1])
		}
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, report, res := runTiny(t, wl.name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, correct %v, attempted %d, failed %d\n%s",
					wl.name, trace, code, res.Correct, res.Attempted, res.Failed, report)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", wl.name, trace, m.Name, got, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", wl.name, m.Name, got.Value)
				}
			}
			named := []string{"setup_s", "max_rss_mb", "fail_ratio", "eval_rps", "eval_p50_ms", "eval_p99_ms"}
			if wl.sweep {
				named = []string{"setup_s", "max_rss_mb", "fail_ratio", "sweep_points_per_s", "sweep_p50_s", "first_row_p50_s"}
			}
			for _, name := range named {
				if !strings.Contains(report, "  "+name+" ") {
					t.Errorf("%s trace=%s: report lacks the metric %s", wl.name, trace, name)
				}
			}
			for _, s := range []string{"host: commit=", "sim_digest: ", "ops untraced timed"} {
				if !strings.Contains(report, s) {
					t.Errorf("%s trace=%s: report lacks %q", wl.name, trace, s)
				}
			}
			if trace == "1" && !strings.Contains(report, "tracing overhead") {
				t.Errorf("%s: traced report lacks the tracing overhead", wl.name)
			}
		}
	}
}

func TestInjectedMismatchFailsTheRun(t *testing.T) {
	// stale answers every response with the first row served in the
	// run: a genuine result, but for another point.
	var mu sync.Mutex
	var first *row
	stale := func(rs []row) []row {
		mu.Lock()
		defer mu.Unlock()
		if first == nil && len(rs) > 0 {
			first = &rs[0]
		}
		out := append([]row(nil), rs...)
		for i := range out {
			out[i] = *first
		}
		return out
	}
	// The sweep cases leave single-point responses (the setup probe)
	// alone, so only the sweep row-set check can catch them.
	for _, tc := range []struct {
		name, workload, want string
		tamper               func([]row) []row
	}{
		{"flipped bit", "evaluate-hot", "served vs in-process: snr_db", func(rs []row) []row {
			out := append([]row(nil), rs...)
			v := math.Float64frombits(math.Float64bits(*out[0].SNRdB) ^ 1)
			out[0].SNRdB = &v
			return out
		}},
		{"another point's result", "evaluate-hot", "the response is for", stale},
		{"dropped sweep row", "sweep-cold", "miss 1 of the 30 submitted points", func(rs []row) []row {
			if len(rs) < 2 {
				return rs
			}
			return rs[:len(rs)-1]
		}},
		{"repeated sweep row", "sweep-cold", "repeated", func(rs []row) []row {
			if len(rs) < 2 {
				return rs
			}
			out := append([]row(nil), rs...)
			out[len(out)-1] = out[0]
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first = nil
			tamper = tc.tamper
			t.Cleanup(func() { tamper = nil })
			code, report, res := runTiny(t, tc.workload, "0")
			if code == 0 || res.Correct {
				t.Fatalf("an injected mismatch passed: exit %d, correct %v\n%s", code, res.Correct, report)
			}
			if !strings.Contains(report, "mismatch: ") || !strings.Contains(report, tc.want) {
				t.Fatalf("the report does not name the mismatch (%q):\n%s", tc.want, report)
			}
		})
	}
}

func TestSimDigestIsSeedIndependent(t *testing.T) {
	digest := func(seed string) string {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "evaluate-mixed", "--seed", seed, "--seconds", "0.3",
			"-tiny", "-workdir", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("seed %s: exit %d: %s", seed, code, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if d, ok := strings.CutPrefix(line, "sim_digest: "); ok {
				return d
			}
		}
		t.Fatalf("seed %s: no sim_digest line", seed)
		return ""
	}
	if a, b := digest("1"), digest("2"); a != b {
		t.Fatalf("sim_digest differs across seeds: %s vs %s", a, b)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-cold", "--trace", "2"},
		{"--workload", "sweep-cold", "--seconds", "0"},
		{"--workload", "sweep-cold", "extra"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
