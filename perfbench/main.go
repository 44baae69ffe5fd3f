// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time from a single process, checks every output,
// and prints each metric by name and unit; the last line of standard
// output is a JSON summary.
//
//	perfbench --workload session|trace|service --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same workload untraced for the first half of the time and with
// spans around every layer call for the second half, then prints the
// per-layer metrics, the layer budget and the tracing overhead. The seed
// derives every input; the same seed gives the same inputs.
//
// Every layer is timed from outside: spans wrap calls into the layers'
// exported functions, and nothing inside the program is instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/parsim"
)

// setups is how many times a run builds its inputs; setup_s is the median.
const setups = 5

// config is what every workload's setup receives.
type config struct {
	seed int64
	dir  string  // scratch directory of this run, removed at exit
	rate float64 // service: offered jobs per second
	// workers bounds the parallel sweep and daemon workers: the benchmark
	// never asks for more threads than the machine has, up to 2.
	workers int
}

// rng returns a generator for one named decision, derived from the seed,
// so adding a decision never shifts the inputs of another.
func (c config) rng(key string) *rand.Rand {
	return rand.New(rand.NewSource(parsim.DeriveSeed(c.seed, key)))
}

// bench is one workload with its inputs built.
type bench interface {
	// warm runs one untimed pass, so lazy workload arrays and sampler
	// pools are filled before anything is timed. Its operations are
	// checked like measured ones.
	warm(tr *tracer) *phase
	// measure runs operations for about d.
	measure(d time.Duration, tr *tracer) *phase
	// layers computes the workload's per-layer metrics from a traced phase.
	layers(tr *tracer, spans []span) map[string]float64
	close() error
}

var setupFuncs = map[string]func(config) (bench, error){
	"session": newSession,
	"trace":   newTraceBench,
	"service": newService,
}

// phase is what a stretch of operations did.
type phase struct {
	elapsed   time.Duration
	latMs     []float64 // one per completed operation
	attempted int
	failed    int
	refs      uint64 // references profiled by completed operations
	errs      []string
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *phase) add(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 10 {
			p.errs = append(p.errs, e)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Stdout)) }

func run(stdout io.Writer) int {
	var (
		workload = flag.String("workload", "", "workload to run: session, trace or service")
		seed     = flag.Int64("seed", 1, "workload seed; derives every input")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		rate     = flag.Float64("service-rate", 0, "offered load of the service workload, jobs/s")
		out      = flag.String("out", ".bench_build/perfbench", "directory for span dumps and run data")
	)
	flag.Parse()
	setup, ok := setupFuncs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload session|trace|service, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *workload == "service" && *rate <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: the service workload needs --service-rate > 0\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, fmt.Sprintf("%s-seed%d-", *workload, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, dir: dir, rate: *rate, workers: min(runtime.NumCPU(), 2)}

	env := describeEnv(dir)
	env.write(stdout)
	fmt.Fprintf(stdout, "workload %s, seed %d, %d s, trace %d\n", *workload, *seed, *seconds, *traced)

	b, setupS, err := setUp(setup, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	defer func() {
		if err := b.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing %s: %v\n", *workload, err)
		}
	}()

	total := &phase{}
	total.add(b.warm(newTracer(false)))
	d := time.Duration(*seconds) * time.Second
	res := summary{Metrics: map[string]metricValue{}}
	if *traced == 0 {
		ph := b.measure(d, newTracer(false))
		total.add(ph)
		printEndToEnd(stdout, ph, setupS, res.Metrics)
	} else {
		base := b.measure(d/2, newTracer(false))
		tr := newTracer(true)
		ph := b.measure(d-d/2, tr)
		total.add(base)
		total.add(ph)
		spans := tr.snapshot()
		rows, wall := layerBudget(spans)
		layers := b.layers(tr, spans)
		for _, r := range rows {
			if r.Layer == unexplained {
				layers["bench.unexplained_pct"] = r.Pct
			}
		}
		b0, b1 := median(base.latMs), median(ph.latMs)
		if b0 > 0 {
			layers["bench.tracing_overhead_pct"] = 100 * (b1 - b0) / b0
		}
		printPerLayer(stdout, layers, res.Metrics)
		writeBudget(stdout, rows, wall)
		fmt.Fprintf(stdout, "tracing overhead: latency p50 %.3f ms traced (n=%d) vs %.3f ms untraced (n=%d)\n",
			b1, len(ph.latMs), b0, len(base.latMs))
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := dumpSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
	}

	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	fmt.Fprintf(stdout, "failed_ratio %.4f (%d of %d operations failed, were refused or failed a check)\n",
		float64(total.failed)/float64(max(total.attempted, 1)), total.failed, total.attempted)
	for _, e := range total.errs {
		fmt.Fprintf(stdout, "  failure: %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload's inputs several times and keeps the last
// build; it returns the median build time in seconds.
func setUp(setup func(config) (bench, error), cfg config) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		c := cfg
		c.dir = filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		var err error
		if b, err = setup(c); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, median(times), nil
}

func printEndToEnd(w io.Writer, ph *phase, setupS float64, m map[string]metricValue) {
	n := len(ph.latMs)
	secs := ph.elapsed.Seconds()
	vals := map[string]float64{
		"latency_p50_ms": quantile(ph.latMs, 0.5),
		"latency_p90_ms": quantile(ph.latMs, 0.9),
		"ops_per_s":      float64(n) / secs,
		"refs_per_s":     float64(ph.refs) / secs,
		"peak_rss_mb":    peakRSSMB(),
		"setup_s":        setupS,
	}
	samples := map[string]string{
		"latency_p50_ms": fmt.Sprintf("n=%d", n),
		"latency_p90_ms": fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.9)),
		"ops_per_s":      fmt.Sprintf("%d ops in %.3f s", n, secs),
		"refs_per_s":     fmt.Sprintf("%d refs in %.3f s", ph.refs, secs),
		"peak_rss_mb":    "VmHWM of this process",
		"setup_s":        fmt.Sprintf("median of %d set-ups", setups),
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, d := range endToEnd {
		m[d.name] = metricValue{vals[d.name], d.unit}
		fmt.Fprintf(w, "  %-16s %14.4f %-7s (%s)\n", d.name, vals[d.name], d.unit, samples[d.name])
	}
}

func printPerLayer(w io.Writer, vals map[string]float64, m map[string]metricValue) {
	fmt.Fprintln(w, "per-layer metrics (0: the workload bypasses that layer):")
	for _, d := range perLayer {
		m[d.name] = metricValue{vals[d.name], d.unit}
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
