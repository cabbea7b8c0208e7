// Command perfbench is the repository benchmark: it drives the real
// serving path (internal/server over loopback HTTP in front of a
// blinkdb.Engine, both in this process) with one workload, checks the
// answers, and prints the workload's metrics. The last stdout line is
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. A failed output check exits 1.
//
//	perfbench --workload hot-dashboard --seed 1 --seconds 30 --trace 0
//
// run.py in this directory builds and runs it; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	wl := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: rows and request schedule derive from it")
	seconds := flag.Int("seconds", 30, "measured seconds: three fifths open loop, two fifths closed loop")
	trace := flag.Int("trace", 0, "1 adds the traced lockstep pass and prints per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "working directory for engine data directories")
	commit := flag.String("commit", "unknown", "source revision recorded in the run record")
	flag.Parse()
	w, ok := workloadByName(*wl)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(config{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		workdir: *workdir, commit: *commit,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res.problems = append(res.problems, checkContract(res.metrics, defs)...)
	rec, err := json.MarshalIndent(res.record, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		os.Exit(1)
	}
	fmt.Printf("run record:\n%s\n", rec)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metricDef names one metric; the lists below are the benchmark's metric
// contract and match BENCHMARK.json at the repository root.
type metricDef struct{ name, unit string }

// endToEnd are printed by every --trace 0 run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"ttfa_p50_ms", "ms"},
	{"capacity_qps", "1/s"}, {"slo_attain", "fraction"}, {"served_frac", "fraction"},
	{"bound_compliance", "fraction"}, {"ci_coverage", "fraction"}, {"mem_mb", "MB"},
	{"refresh_s", "s"}, {"warm_boot_s", "s"},
}

// perLayer are printed by every --trace 1 run, on every workload.
var perLayer = []metricDef{
	{"server.self_us_p50", "us"},
	{"sqlparser.parse_us_p50", "us"}, {"sqlparser.normalize_us_p50", "us"},
	{"admission.wait_ms_p99", "ms"}, {"admission.shed_frac", "fraction"},
	{"resultcache.hit_frac", "fraction"}, {"resultcache.lookup_us_p50", "us"},
	{"plancache.hit_frac", "fraction"}, {"plancache.lookup_us_p50", "us"},
	{"elp.prepares_per_query", "count"}, {"elp.probes_per_query", "count"},
	{"elp.prepare_us_p50", "us"}, {"elp.base_table_frac", "fraction"},
	{"elp.pred_over_obs_latency_p50", "ratio"},
	{"exec.scan_us_p50", "us"}, {"exec.scan_us_p99", "us"}, {"exec.merge_us_p50", "us"},
	{"exec.scan_share", "fraction"},
	{"exec.rows_scanned_per_answer", "count"}, {"exec.matched_per_scanned", "fraction"},
	{"optimizer.create_samples_s", "s"}, {"storage.load_s", "s"}, {"sample.bytes", "bytes"},
	{"maintenance.refresh_s", "s"}, {"persistence.snapshot_s", "s"},
	{"persistence.warm_load_s", "s"}, {"persistence.restore_s", "s"},
	{"driver.lateness_ms_p99", "ms"}, {"telemetry.trace_overhead_frac", "fraction"},
}

// checkContract reports metrics missing from, or not in, the contract for
// the run's mode, and units that differ from it.
func checkContract(m metricSet, defs []metricDef) []string {
	var bad []string
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
		got, ok := m[d.name]
		switch {
		case !ok:
			bad = append(bad, "metric "+d.name+" not produced")
		case got.Unit != d.unit:
			bad = append(bad, fmt.Sprintf("metric %s has unit %q, contract says %q", d.name, got.Unit, d.unit))
		}
	}
	for _, n := range m.names() {
		if _, ok := want[n]; !ok {
			bad = append(bad, "metric "+n+" is not in the contract")
		}
	}
	return bad
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// names returns the metric names in sorted order.
func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hostInfo is the hardware and toolchain part of the run record.
func hostInfo(commit string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}
