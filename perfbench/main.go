// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the public entry points of fleet, fleetd and
// testbed, checks their outputs, and prints every metric by name with its
// unit. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory explains them.
//
//	perfbench --workload fleet-steady --seed 1 --seconds 40 --trace 0
//
// A run repeats its workload's round (one fixed, seed-determined job) for
// about --seconds and reports medians over the rounds, after one warm-up
// round whose times are discarded. With --trace 1 it
// alternates untraced and traced rounds and reports the per-layer metrics
// of the traced ones plus the tracing overhead. The last line of standard
// output is the result object; a provenance object precedes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// DefaultSeed is the seed used while the benchmark was tuned. Seed 9001
// was held out of tuning; README.md records both seeds' spreads.
const DefaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where traced runs write their spans
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{traceDir: filepath.Join(".bench_build", "traces")}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 40, "measurement budget in wall seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced rounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = trace == 1
	return report(w, o, stdout, stderr)
}

// report measures w and prints the provenance line and the result line.
func report(w *workload, o options, stdout, stderr io.Writer) int {
	prov := provenance(o, w)
	res, rec := measure(w, o, stderr)
	if o.trace {
		path, err := writeTrace(o, prov, rec)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: trace written to %s\n", path)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"-"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs rounds of w until the time budget is spent and reduces
// them to the result. Round 0 warms up: it runs untraced, its outputs are
// checked, and its times are discarded, so that every measured round runs
// warm. Untraced runs report the end-to-end metrics; traced runs alternate
// untraced and traced rounds (at least one of each) and report the
// per-layer metrics of the traced rounds plus overheads.
func measure(w *workload, o options, log io.Writer) (result, *recorder) {
	rec := newRecorder()
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var warmup *round
	var plain, traced []*round
	var last time.Duration
	for i := 0; ; i++ {
		tr := o.trace && i > 0 && i%2 == 0
		t0 := time.Now()
		r := w.run(&roundEnv{seed: o.seed, size: w.size, rec: rec.forRound(i, tr)})
		last = time.Since(t0)
		fmt.Fprintf(log, "perfbench: round %d warmup=%v traced=%v setup=%.3fs round=%.3fs windows=%d\n",
			i, i == 0, tr, r.setupS, r.roundS, len(r.windowsMS))
		switch {
		case i == 0:
			warmup = r
		case tr:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
		}
		if len(plain) == 0 || (o.trace && len(traced) == 0) {
			continue
		}
		if time.Since(start)+last > budget {
			break
		}
	}

	all := append(append([]*round{warmup}, plain...), traced...)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
	}
	// Sim metrics must repeat bit for bit across rounds at one seed.
	for _, r := range all[1:] {
		if r.fingerprint != warmup.fingerprint {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"a round's sim outputs differ from the warm-up round's at seed %d: %s vs %s",
				o.seed, r.fingerprint, warmup.fingerprint))
		}
	}

	if !o.trace {
		for name, v := range endToEnd(plain) {
			res.Metrics[name] = metric{Value: v, Unit: units[name]}
		}
	} else {
		layer := perLayer(traced)
		base, withTrace := endToEnd(plain), endToEnd(traced)
		for _, m := range endToEndMetrics {
			layer["overhead."+m.Name] = withTrace[m.Name] - base[m.Name]
		}
		for name, v := range layer {
			res.Metrics[name] = metric{Value: v, Unit: units[name]}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %s is %v", name, m.Value))
		}
	}
	if res.Failed > 0 || len(res.Problems) > 0 {
		res.Correct = false
	}
	return res, rec
}

// endToEnd reduces rounds to the end-to-end metrics: medians of per-round
// values, and window percentiles over every window of every round.
func endToEnd(rs []*round) map[string]float64 {
	per := func(f func(*round) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return quantile(xs, 0.5)
	}
	var windows []float64
	for _, r := range rs {
		windows = append(windows, r.windowsMS...)
	}
	return map[string]float64{
		"setup_s":           per(func(r *round) float64 { return r.setupS }),
		"sim_s_per_wall_s":  per(func(r *round) float64 { return r.simS / r.liveS }),
		"window_ms_p50":     quantile(windows, 0.5),
		"window_ms_p90":     quantile(windows, 0.9),
		"round_s":           per(func(r *round) float64 { return r.roundS }),
		"bytes_per_network": per(func(r *round) float64 { return r.bytesPerNet }),
		"quality":           per(func(r *round) float64 { return r.quality }),
	}
}

// perLayer takes the median of each per-layer value over the rounds.
func perLayer(rs []*round) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayerMetrics {
		if strings.HasPrefix(m.Name, "overhead.") {
			continue
		}
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.layer[m.Name]
		}
		out[m.Name] = quantile(xs, 0.5)
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// provenance records where and how the numbers were made.
func provenance(o options, w *workload) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.trace,
		"size":       w.size,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
