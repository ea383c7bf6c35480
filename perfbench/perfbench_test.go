package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the subset of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, want)
	}
	same := func(kind string, file, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(file), len(code))
		}
		for i := range file {
			if i < len(code) && file[i] != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, code %v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}

// specLayerNames are the per-layer metrics the benchmark was specified
// with; specEndToEndNames are the workload-specific end-to-end metrics of
// that specification, which the traced run reports per layer.
var (
	specLayerNames = []string{
		"fleet.generate_s", "fleetd.register_s", "fleetd.cold_window_s",
		"fleetd.pass_ms_p50", "fleetd.pass_ms_p99", "fleetd.sched_lag_ms_p99", "fleetd.ingest_ms_sum",
		"fleetd.passes_i0", "fleetd.passes_i1", "fleetd.passes_i2", "fleetd.coalesced",
		"fleetd.skip_ratio", "fleetd.quiet_window_ms_p50",
		"fleetd.journal_records", "fleetd.journal_bytes", "fleetd.checkpoint_bytes",
		"fleetd.checkpoint_ms", "fleetd.replay_passes",
		"turboca.pass_ms_p50", "turboca.pass_ms_p99", "turboca.hop_level_ms_p50", "turboca.invocations",
		"turboca.accept_ratio", "turboca.rescore_reuse_ratio", "turboca.switches_planned",
		"backend.poll_ms_p50", "backend.reconcile_ms_p50", "backend.polls", "backend.push_fail_ratio",
		"littletable.insert_us_p50", "littletable.query_us_p50", "littletable.rows_inserted", "littletable.rows_pruned",
		"runtime.allocs_per_pass", "runtime.allocs_per_sim_s", "runtime.gc_cycles",
		"testbed.run_s.baseline", "testbed.run_s.fastack", "sim.events", "sim.events_per_s",
		"mac.ampdu_mpdus_p50", "mac.lat80211_ms_p50", "tcpstack.retransmits", "tcpstack.timeouts",
		"fastack.fast_acks_sent", "fastack.client_acks_dropped", "fastack.local_retransmits", "fastack.cache_hit_ratio",
	}
	specEndToEndNames = []string{
		"fleetd.passes_per_s", "fleetd.restart_s", "fleetd.netp_p50",
		"testbed.goodput_mbps", "testbed.fastack_gain",
	}
)

// busy lists, per workload, the per-layer metrics that must be nonzero.
var busy = map[string][]string{
	"fleet-steady": {"fleet.generate_s", "fleetd.cold_window_s", "fleetd.passes_i0", "fleetd.passes_per_s",
		"turboca.invocations", "backend.polls", "littletable.rows_inserted", "runtime.allocs_per_pass", "trace.spans"},
	"fleet-day": {"fleetd.passes_i1", "fleetd.journal_records", "fleetd.checkpoint_bytes",
		"fleetd.replay_passes", "fleetd.restart_s", "fleetd.netp_p50", "trace.turboca_share"},
	"fastack-testbed": {"testbed.run_s.baseline", "testbed.run_s.fastack", "testbed.goodput_mbps",
		"testbed.fastack_gain", "sim.events", "mac.ampdu_mpdus_p50", "fastack.fast_acks_sent", "runtime.allocs_per_sim_s"},
}

// runToy runs one toy-sized invocation and decodes its result line.
func runToy(t *testing.T, name, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	w := workloads[name]
	o := options{workload: name, seed: 3, seconds: 0.001, trace: trace == "1", traceDir: dir}
	if code := report(&workload{size: w.toy, run: w.run}, o, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if trace == "1" {
		data, err := os.ReadFile(filepath.Join(dir, name+"-seed3.json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
			t.Fatalf("trace file holds %d spans (%v)", len(file.Spans), err)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

func checkMetrics(t *testing.T, res result, want []metricSpec, nonzero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %v", m.Name, got.Value)
		case nonzero && got.Value == 0:
			t.Errorf("%s = 0", m.Name)
		}
	}
}

func TestToyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			checkMetrics(t, runToy(t, name, "0"), endToEndMetrics, true)
			traced := runToy(t, name, "1")
			checkMetrics(t, traced, perLayerMetrics, false)
			for _, m := range busy[name] {
				if traced.Metrics[m].Value == 0 {
					t.Errorf("%s reads 0 on %s", m, name)
				}
			}
		})
	}
}

func TestPerLayerNamesCoverSpecification(t *testing.T) {
	have := map[string]bool{}
	for _, m := range perLayerMetrics {
		have[m.Name] = true
	}
	for _, name := range append(append([]string(nil), specLayerNames...), specEndToEndNames...) {
		if !have[name] {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	for _, m := range endToEndMetrics {
		if !have["overhead."+m.Name] {
			t.Errorf("no tracing overhead reported for %s", m.Name)
		}
	}
}

func TestSimMetricsRepeatAcrossRuns(t *testing.T) {
	for _, name := range workloadNames() {
		a := runToy(t, name, "0").Metrics["quality"].Value
		b := runToy(t, name, "0").Metrics["quality"].Value
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: quality %v then %v at one seed", name, a, b)
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet-day", "--trace", "2"},
		{"--workload", "fleet-day", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
