// Command perfbench is the EffiCSense benchmark. It starts the real
// serving stack in process — serve.NewSuiteEngines, serve.NewManager
// with a write-ahead log, serve.NewServer on a loopback listener, as
// cmd/efficsensed wires it — and drives one named workload over HTTP
// from closed-loop clients. Every returned row is checked bit for bit
// against an in-process evaluation of the same point made outside the
// timed phase.
//
//	perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics; with --trace 1 the same workload
// runs untraced and then traced, the traced run records spans around
// each layer, and the JSON carries the per-layer metrics. The lines
// before it are the human-readable report: host stamp, operation
// accounting per phase, every metric with its unit and sample count,
// the sim_digest and, for a traced run, the tracing overhead and the
// sweep time accounting. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"efficsense/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	source   string
	tiny     bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var seconds float64
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: sweep-cold, evaluate-hot or evaluate-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (drives every generated request)")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for journals")
	fs.StringVar(&cfg.source, "source", "", "repository root, hashed into the host stamp")
	fs.BoolVar(&cfg.tiny, "tiny", false, "smoke-test scale (2 records, a small detector)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case seconds <= 0:
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if _, err := lookupWorkload(cfg.workload); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// perLayerUnits lists every per-layer metric a traced run reports, in
// report order. BENCHMARK.json's per_layer list matches it.
var perLayerUnits = [][2]string{
	{"serve.eval_self_us", "us"},
	{"serve.sweep_overhead_ms", "ms"},
	{"serve.admit_wait_ms", "ms"},
	{"dse.run_self_us_per_point", "us"},
	{"dse.batches", "count"},
	{"dse.points_per_batch", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups", "count"},
	{"cache.evictions", "count"},
	{"cache.lookup_us", "us"},
	{"core.eval_ms_per_point.baseline", "ms"},
	{"core.eval_ms_per_point.cs", "ms"},
	{"core.eval_ms_per_point.cs-digital", "ms"},
	{"core.eval_ms_per_point.cs-active", "ms"},
	{"core.points_per_group", "count"},
	{"chain.amplify_ms_per_record", "ms"},
	{"chain.digitize_ms_per_record", "ms"},
	{"chain.cs_encode_ms_per_record", "ms"},
	{"chain.cs_finish_ms_per_record", "ms"},
	{"chain.digital_ms_per_record", "ms"},
	{"chain.active_ms_per_record", "ms"},
	{"cs.omp_us_per_frame", "us"},
	{"cs.atoms_per_frame", "count"},
	{"cs.bomp_us_per_frame", "us"},
	{"classify.train_s", "s"},
	{"classify.score_us_per_record", "us"},
	{"eeg.synth_ms_per_record", "ms"},
	{"ecg.synth_ms_per_record", "ms"},
	{"dsp.resample_ms_per_record", "ms"},
	{"wal.appends_per_sweep", "count"},
	{"wal.fsyncs_per_sweep", "count"},
	{"wal.append_us", "us"},
	{"wal.fsync_ms", "ms"},
	{"report.ndjson_us_per_row", "us"},
	{"sweep.wall_ms", "ms"},
	{"sweep.uncovered_ms", "ms"},
	{"trace.overhead_pct.ops_per_s", "%"},
	{"trace.overhead_pct.p50_ms", "%"},
	{"trace.overhead_pct.p99_ms", "%"},
}

// jsonMetric and jsonResult are the machine-readable last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := bench(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func bench(cfg config, stdout io.Writer) error {
	w, _ := lookupWorkload(cfg.workload)
	sc := fullScale
	if cfg.tiny {
		sc = tinyScale
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	workdir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)

	host := stamp(cfg.source, cfg.seed)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(stdout, "host: commit=%s tree=%s cpu=%q nproc=%d gomaxprocs=%d go=%s kernels=%s seed=%d\n",
		host.Commit, host.Tree, host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Kernels, host.Seed)

	var passes []*pass
	var tr *tracer
	setups := sc.setups
	if cfg.trace {
		setups = 1
	}
	untraced, err := runPass(w, sc, cfg, setups, nil)
	passes = append(passes, untraced)
	if err == nil && cfg.trace {
		tr = newTracer()
		var traced *pass
		traced, err = runPass(w, sc, cfg, 1, tr)
		passes = append(passes, traced)
	}
	printAccounting(stdout, passes)
	if err != nil {
		return err
	}

	// The correctness gate, outside every timed phase.
	all := newObserved()
	for _, p := range passes {
		all.merge(p.obs)
	}
	pts := make([]core.DesignPoint, len(all.order))
	for i, k := range all.order {
		pts[i] = all.points[k]
	}
	ref := newReference(w.serverOptions(sc))
	refs := ref.evaluate(pts, runtime.GOMAXPROCS(0))
	bad := check(all, refs)
	fmt.Fprintf(stdout, "check: %d rows, %d distinct points compared bit for bit with the in-process evaluator, %d mismatches\n",
		all.n, len(all.order), len(bad))
	for _, b := range bad {
		fmt.Fprintf(stdout, "  mismatch: %s\n", b)
	}
	fmt.Fprintf(stdout, "sim_digest: %s (%d warm-up points)\n", simDigest(refs, untraced.digestKeys), len(untraced.digestKeys))

	gated, detail := untraced.endToEnd(w)
	fmt.Fprintln(stdout, "end-to-end (untraced):")
	printMetrics(stdout, append(gated, detail...))
	if len(untraced.sweeps) > 0 {
		var lat []string
		for _, s := range untraced.sweeps {
			lat = append(lat, fmt.Sprintf("%.0f", s.latency.Seconds()*1e3))
		}
		fmt.Fprintf(stdout, "  sweep latencies (ms): %s\n", strings.Join(lat, " "))
	}
	var setupTimes []string
	for _, d := range untraced.setups {
		setupTimes = append(setupTimes, fmt.Sprintf("%.3f", d.Seconds()))
	}
	fmt.Fprintf(stdout, "  setups (s): %s\n", strings.Join(setupTimes, " "))

	res := jsonResult{Correct: len(bad) == 0, Metrics: make(map[string]jsonMetric)}
	for _, p := range passes {
		for _, ph := range p.phases {
			res.Attempted += ph.attempted
			res.Failed += ph.nFailed()
		}
	}
	if !cfg.trace {
		for _, m := range gated {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	} else {
		traced := passes[1]
		tgated, _ := traced.endToEnd(w)
		overhead := printOverhead(stdout, gated, tgated)
		var sample []core.DesignPoint
		var results []core.Result
		for _, k := range traced.obs.order {
			sample = append(sample, traced.obs.points[k])
			results = append(results, refs[k])
		}
		stages, err := replayStages(w.serverOptions(sc), ref, sample, results, workdir)
		if err != nil {
			return err
		}
		layers := perLayer(w, traced, tr, stages, overhead)
		fmt.Fprintln(stdout, "per-layer (traced):")
		printSweepAccounting(stdout, w, traced, tr, stages)
		var ms []metric
		for _, nu := range perLayerUnits {
			m := layers[nu[0]]
			m.name, m.unit = nu[0], nu[1]
			ms = append(ms, m)
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		printMetrics(stdout, ms)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("correctness gate: %d served rows differ from the in-process evaluation", len(bad))
	}
	return nil
}

func printAccounting(w io.Writer, passes []*pass) {
	for _, p := range passes {
		label := "untraced"
		if p.traced {
			label = "traced"
		}
		for _, name := range []string{"setup", "warmup", "timed"} {
			ph := p.phases[name]
			var parts []string
			for _, c := range causes {
				parts = append(parts, fmt.Sprintf("%s %d", c, ph.failed[c]))
			}
			fmt.Fprintf(w, "ops %-8s %-6s attempted %d succeeded %d failed %d (%s)\n",
				label, name, ph.attempted, ph.succeeded, ph.nFailed(), strings.Join(parts, ", "))
			if ph.firstErr != "" {
				fmt.Fprintf(w, "  first failure: %s\n", ph.firstErr)
			}
		}
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		tail := ""
		if m.n > 0 {
			tail = fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			tail += " — " + m.note
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s%s\n", m.name, m.value, m.unit, tail)
	}
}

// printOverhead sets the traced run's end-to-end metrics beside the
// untraced ones and returns the overheads in percent (positive = the
// traced run was worse).
func printOverhead(w io.Writer, untraced, traced []metric) map[string]float64 {
	fmt.Fprintln(w, "tracing overhead (traced vs untraced, same process, one setup each):")
	out := make(map[string]float64)
	for i, u := range untraced {
		t := traced[i]
		pct := 0.0
		if u.value != 0 {
			pct = (t.value - u.value) / u.value * 100
			if u.name == "ops_per_s" {
				pct = -pct
			}
		}
		out[u.name] = pct
		fmt.Fprintf(w, "  %-20s untraced %12.6g  traced %12.6g %-4s overhead %+7.2f%%\n", u.name, u.value, t.value, u.unit, pct)
	}
	return out
}
