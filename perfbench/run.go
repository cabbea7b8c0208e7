package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"blinkdb"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/telemetry"
)

type config struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	workdir string
	commit  string
}

type result struct {
	attempted, failed int
	metrics           metricSet
	record            map[string]any
	problems          []string
}

const (
	// warmup is driven before each round's measured window and not scored.
	warmup = 500 * time.Millisecond
	// rounds is how many cold-booted engines an untraced run serves from,
	// one after another. Each round gets an equal share of the measured
	// time and its own request schedules drawn from the seed, and the
	// metrics pool all rounds. What an engine caches first (a template's
	// plan, say) can set its cost for the rest of its life, so one engine
	// per run would make each run one draw of that; pooling rounds
	// measures the mix. setup_s is the median of the rounds' boots. A
	// traced run serves one round.
	rounds = 4
	// persistPerRound is how many warm reopens, and on workloads that do
	// not refresh under load how many idle refresh+snapshot cycles, follow
	// each round; warm_boot_s and refresh_s are their medians over the
	// run, so they sample the host across the run, not in one spell.
	persistPerRound = 2
	// closedRate sizes each round's closed-loop request list: as many
	// requests as this rate would send over the closed phase. That is far
	// more than adhoc-scan's closed loop sends (under 1000/s on the 2-core
	// host the benchmark was written on), so none of its requests repeat
	// and none is a result-cache replay; hot-dashboard's repeat, as its
	// traffic does.
	closedRate = 5000
	// maxLatenessMS voids a run whose driver fell this far behind.
	maxLatenessMS = 1000
)

// roundSeeds derives round r's schedule seeds from the run seed: the open
// loop's and the closed loop's. Round 0 uses the seed itself.
func roundSeeds(seed int64, r int) (open, closed int64) {
	base := seed + int64(r)*0x9E3779B9
	return base, base + 1
}

// round is what one cold-booted engine served, and what was checked.
type round struct {
	boot       bootTimes
	sched      []request // open loop, warm-up first
	nWarm      int       // requests of sched in the warm-up
	closedReqs []request // nil once an untraced round's closed loop is done
	closedLen  int
	prewarm    []outcome
	outs       []outcome // sched's outcomes, in schedule order
	closedOuts []outcome
	closedDone []time.Duration // completion offsets within the closed loop
	closedDur  time.Duration
	peakHeap   uint64
	win        blinkdb.EngineStats // engine counters over the measured window
	mWarm      telemetry.ServerSnapshot
	mAll       telemetry.ServerSnapshot
	tele       telemetry.Snapshot
	cycles     []refreshCycle // refresh cycles under load
	connPeak   int
	connAccept int
	gt         truth
	rep        *blinkdb.SampleReport
}

// run executes one benchmark run: for each round a cold boot, warm-up,
// the measured open loop, the closed loop (untraced runs), the checks
// against ground truth and a persistence cycle; then, with cfg.traced,
// the three-engine traced pass.
func run(cfg config) (*result, error) {
	w := cfg.w
	nproc := runtime.NumCPU()
	n := rounds
	if cfg.traced {
		n = 1
	}
	measured := time.Duration(cfg.seconds) * time.Second
	// Three fifths open loop, two fifths closed loop, split evenly over
	// the rounds.
	openDur := measured * 3 / 5 / time.Duration(n)
	closedDur := measured * 2 / 5 / time.Duration(n)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dirN := 0
	newDir := func() string {
		dirN++
		return filepath.Join(work, fmt.Sprintf("data%d", dirN))
	}

	res := &result{metrics: metricSet{}}
	rec := map[string]any{
		"workload": w.name, "why": w.why, "seed": cfg.seed, "seconds": cfg.seconds,
		"host": hostInfo(cfg.commit),
		"config": map[string]any{
			"engine": map[string]any{"rows": defaultRows, "scale": defaultScale, "seed": defaultEngineSeed,
				"cache_tables": true, "data_dir": w.dataDir, "plan_cache": 256, "result_cache": 1024,
				"workers": 8, "telemetry": true},
			"samples":   map[string]any{"budget_fraction": defaultBudget, "k": defaultK, "templates": "Conviva T1-T7"},
			"admission": map[string]any{"max_concurrent": defaultMaxConc, "max_queue": defaultMaxQueue, "max_backlog_s": defaultMaxBacklog},
			"driver": map[string]any{"connections": nproc, "goroutines": nproc, "open_rate_qps": w.rate,
				"rounds": n, "warmup_s": warmup.Seconds(), "open_s_per_round": openDur.Seconds(),
				"closed_s_per_round": closedDur.Seconds(), "slo_ms": w.sloMS, "refresh_every_s": w.refreshEvery.Seconds()},
		},
	}
	res.record = rec
	// The host's own speed, before and after the run: on a shared machine
	// it drifts, and every timing metric drifts with it.
	rec["host_probe_start"] = hostProbe()
	defer func() { rec["host_probe_end"] = hostProbe() }()
	problem := func(format string, args ...any) { res.problems = append(res.problems, fmt.Sprintf(format, args...)) }

	// Workloads that serve without a data directory reopen, refresh and
	// snapshot an idle engine over one of their own after each round.
	persistDir := ""
	var rs []*round
	var warmBootsT []bootTimes
	var idleCycles []refreshCycle
	pending := ""     // data directory whose reopens are due
	var first request // the request each reopen answers first
	// persist runs the reopens (and idle refreshes) due over pending.
	persist := func(d *dataset) error {
		boots, cycles, err := persistCycle(d, pending, &first, !w.dataDir)
		warmBootsT = append(warmBootsT, boots...)
		idleCycles = append(idleCycles, cycles...)
		for _, cy := range cycles {
			if cy.Err != "" {
				problem("idle refresh: %s", cy.Err)
			}
		}
		return err
	}
	for i := 0; i < n; i++ {
		openSeed, closedSeed := roundSeeds(cfg.seed, i)
		r := &round{
			sched:      w.schedule(openSeed, warmup+openDur, w.rate),
			closedReqs: w.schedule(closedSeed, closedDur, closedRate),
			closedDur:  closedDur,
		}
		if len(r.sched) == 0 || len(r.closedReqs) == 0 {
			return nil, fmt.Errorf("empty schedule")
		}
		for r.nWarm < len(r.sched) && r.sched[r.nWarm].Due < warmup {
			r.nWarm++
		}
		// The rows are generated afresh for each round and dropped before
		// it serves, so the live heap (mem_mb) holds the program's data,
		// not the benchmark's.
		d := genData(cfg.seed, defaultRows)
		if i == 0 && !w.dataDir {
			persistDir = newDir()
			p, _, err := boot(d, persistDir, false, nil)
			if err != nil {
				return nil, err
			}
			p.stop()
		}
		if pending != "" {
			if err := persist(d); err != nil {
				return nil, err
			}
		}
		dir := ""
		if w.dataDir {
			dir = newDir()
		}
		in, bt, err := boot(d, dir, false, nil)
		if err != nil {
			return nil, err
		}
		d = nil
		r.boot, r.rep = bt, in.rep
		if err := serveRound(cfg, in, r, nproc); err != nil {
			return nil, err
		}
		rs = append(rs, r)
		pending, first = persistDir, r.sched[0]
		if w.dataDir {
			pending = dir
		}
	}
	d := genData(cfg.seed, defaultRows)
	if err := persist(d); err != nil {
		return nil, err
	}
	r0 := rs[0]
	rec["queries_round0"] = distinctQueries(r0.sched)
	var setups []bootTimes
	for _, r := range rs {
		setups = append(setups, r.boot)
	}
	rec["setup"] = setups
	rec["sample_report"] = r0.rep
	rec["warm_boots"] = warmBootsT

	// Checks and scoring over every round's measured window.
	var lat, ttfaStream, ttfaAll, late []float64
	var sloMet, streamed, boundChecked, boundMet, exactChecked, attemptedWin int
	var inexact, covered int
	var answerCoverage []float64
	var scanned, matched, executed int64
	var win blinkdb.EngineStats
	var closedServed int
	var closedTotal time.Duration
	var cycles []refreshCycle
	var peakHeap uint64
	byTemplate := map[string]*grades{}
	latByTemplate := map[string][]float64{}
	var perRound []map[string]any
	for ri, r := range rs {
		all := append(append(append([]outcome(nil), r.prewarm...), r.outs...), r.closedOuts...)
		res.attempted += len(all)
		arrivals := 0
		for _, o := range all {
			if o.verdict != served {
				res.failed++
			}
			if o.status != 0 && o.status != 400 && o.status != 503 {
				arrivals++
			}
		}
		if got := r.mAll.Admitted + r.mAll.Shed + r.mAll.QueueCancelled; int64(arrivals) != got {
			problem("round %d conservation: %d arrivals, admitted %d + shed %d + queue-cancelled %d = %d",
				ri, arrivals, r.mAll.Admitted, r.mAll.Shed, r.mAll.QueueCancelled, got)
		}
		for i, o := range all {
			if o.verdict == errored {
				problem("round %d request %d: %s", ri, i, o.detail)
				break
			}
		}
		if !w.prewarm && len(r.closedOuts) > r.closedLen {
			problem("round %d: the closed loop sent %d requests from a list of %d, so it replayed some from the result cache",
				ri, len(r.closedOuts), r.closedLen)
		}
		if r.connPeak > nproc {
			problem("round %d: driver held %d connections at once, bound is nproc = %d", ri, r.connPeak, nproc)
		}
		for _, cy := range r.cycles {
			if cy.Err != "" {
				problem("round %d refresh cycle at %.2fs: %s", ri, cy.AtS, cy.Err)
			}
		}
		if w.refreshEvery > 0 {
			checkInvalidation(r.cycles, problem)
		}
		cycles = append(cycles, r.cycles...)
		win = addStats(win, r.win)
		closedServed += len(r.closedDone)
		closedTotal += r.closedDur
		peakHeap = max(peakHeap, r.peakHeap)
		perRound = append(perRound, map[string]any{
			"boot": r.boot, "peak_heap_mb": float64(r.peakHeap) / 1e6,
			"closed_qps":          float64(len(r.closedDone)) / r.closedDur.Seconds(),
			"capacity_slices_qps": sliceRates(r.closedDone, r.closedDur, r.closedDur/4),
			"base_table_share":    frac(r.win.AnswersByLevel[-1], answersOf(r.win)),
			"connections_peak":    r.connPeak, "connections_accepted": r.connAccept,
			"ground_truth_queries": len(r.gt), "server_metrics": r.mAll,
			"refresh_cycles": r.cycles,
		})

		// Graded answers; coverage grades each distinct answer once, so a
		// hot query replayed from the cache does not outweigh the rest,
		// and weighs answers equally, so one GROUP BY answer with sixty
		// cells does not outweigh sixty single-cell answers.
		graded := map[string]bool{}
		for i, o := range r.outs {
			q := r.sched[i]
			if o.verdict == served && !q.bounded() {
				if want, ok := r.gt[q.SQL]; ok {
					exactChecked++
					if err := sameResult(o.final.Result, want); err != nil {
						problem("unbounded answer differs from ground truth: %s: %v", q.SQL, err)
					}
				}
			}
			if i < r.nWarm {
				continue
			}
			attemptedWin++
			late = append(late, ms(o.sent))
			if q.Stream {
				streamed++
			}
			if o.verdict != served {
				continue
			}
			lat = append(lat, ms(o.latency))
			latByTemplate[q.Template] = append(latByTemplate[q.Template], ms(o.latency))
			ttfaAll = append(ttfaAll, ms(o.ttfa))
			if q.Stream {
				ttfaStream = append(ttfaStream, ms(o.ttfa))
			}
			if ms(o.latency) <= w.sloMS {
				sloMet++
			}
			fr := o.final.Result
			if fr.ResultCache != "hit" && fr.ResultCache != "shared" {
				executed++
				scanned += fr.RowsScanned
				matched += fr.RowsMatched
			}
			if !q.bounded() {
				continue
			}
			g := byTemplate[q.Template]
			if g == nil {
				g = &grades{}
				byTemplate[q.Template] = g
			}
			boundChecked++
			g.Answers++
			if meetsBound(q, fr) {
				boundMet++
				g.Met++
			}
			akey := q.key() + "|" + answerKey(fr)
			if want, ok := r.gt[q.SQL]; ok && !graded[akey] {
				graded[akey] = true
				a, b := coverage(fr, want)
				if a > 0 {
					answerCoverage = append(answerCoverage, float64(b)/float64(a))
				}
				inexact += a
				covered += b
				g.Cells += a
				g.Covered += b
			}
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no request served in the measured window")
	}
	ttfa := ttfaStream
	if len(ttfa) == 0 {
		ttfa = ttfaAll // no streamed requests: the single frame is the first answer
	}
	p90, p90Windows := tailQuantile(lat, 0.9)
	p99, p99Windows := tailQuantile(lat, 0.99)
	lateP99 := percentile(late, 0.99)
	if lateP99 > maxLatenessMS {
		problem("driver lateness p99 %.1f ms > %d ms: the run is void", lateP99, maxLatenessMS)
	}
	answers := answersOf(win)
	rec["rounds"] = perRound
	rec["window"] = map[string]any{
		"attempted": attemptedWin, "served": len(lat),
		// Tail latencies are reported, not gated: on a shared host they
		// spread too far between runs of the same code to bound a
		// regression (README.md, Noise).
		"p90_ms":                  p90,
		"p90_subwindows":          len(p90Windows),
		"p90_samples_beyond":      beyond(len(lat)/len(p90Windows), 0.9),
		"p99_ms":                  percentile(lat, 0.99),
		"p99_samples_beyond":      beyond(len(lat), 0.99),
		"p99_subwindow_median_ms": p99,
		"p99_subwindows_ms":       p99Windows,
		"grades_by_template":      byTemplate,
		"latency_by_template":     latencySummary(latByTemplate),
		"streamed_share":          frac(int64(streamed), int64(attemptedWin)),
		"result_cache_hit_share":  win.ResultCacheHitRate(),
		"plan_cache_hit_share":    win.PlanCacheHitRate(),
		"base_table_share":        frac(win.AnswersByLevel[-1], answers),
		"bound_checked":           boundChecked, "bound_met": boundMet,
		"ci_cells": inexact, "ci_covered": covered, "ci_answers": len(answerCoverage),
		"unbounded_checked":      exactChecked,
		"fail_frac":              frac(int64(res.failed), int64(res.attempted)),
		"driver_lateness_p99_ms": lateP99,
		"engine_stats_window":    win,
	}
	if w.dataDir {
		rec["refresh_note"] = "Engine.RefreshSamples builds a new Refresher per call, so every cycle redraws family 0 with the same seed: refresh-churn measures repeated identical rebuilds"
	} else {
		cycles = idleCycles
		rec["idle_refresh_cycles"] = idleCycles
	}
	if inexact == 0 {
		problem("no inexact cells to grade: ci_coverage undefined for this run")
	}

	m := res.metrics
	if !cfg.traced {
		m.set("setup_s", "s", median(pick(rs, func(r *round) float64 { return r.boot.Total })))
		m.set("p50_ms", "ms", percentile(lat, 0.5))
		m.set("ttfa_p50_ms", "ms", percentile(ttfa, 0.5))
		m.set("capacity_qps", "1/s", float64(closedServed)/closedTotal.Seconds())
		m.set("slo_attain", "fraction", frac(int64(sloMet), int64(attemptedWin)))
		m.set("served_frac", "fraction", 1-frac(int64(res.failed), int64(res.attempted)))
		m.set("bound_compliance", "fraction", frac(int64(boundMet), int64(boundChecked)))
		m.set("ci_coverage", "fraction", mean(answerCoverage))
		m.set("mem_mb", "MB", float64(peakHeap)/1e6)
		m.set("refresh_s", "s", median(pick(cycles, func(c refreshCycle) float64 { return c.RefreshS + c.SnapshotS })))
		m.set("warm_boot_s", "s", median(pick(warmBootsT, func(b bootTimes) float64 { return b.Total })))
		return res, nil
	}

	// Per-layer metrics: counters from the measured window, timings of
	// the layer calls the benchmark made, and the traced pass.
	mAll, mWarm := r0.mAll, r0.mWarm
	m.set("admission.wait_ms_p99", "ms", mAll.QueueWait.P99*1e3)
	m.set("admission.shed_frac", "fraction", frac(mAll.Shed-mWarm.Shed, mAll.Admitted+mAll.Shed-mWarm.Admitted-mWarm.Shed))
	m.set("resultcache.hit_frac", "fraction", win.ResultCacheHitRate())
	m.set("plancache.hit_frac", "fraction", win.PlanCacheHitRate())
	queries := win.ResultCacheHits + win.ResultCacheMisses + win.ResultCacheShared
	m.set("elp.prepares_per_query", "count", frac(win.Prepares, queries))
	m.set("elp.probes_per_query", "count", frac(win.ProbeExecs, queries))
	m.set("elp.base_table_frac", "fraction", frac(win.AnswersByLevel[-1], answers))
	m.set("elp.pred_over_obs_latency_p50", "ratio", predOverObs(r0.tele))
	m.set("exec.rows_scanned_per_answer", "count", frac(scanned, executed))
	m.set("exec.matched_per_scanned", "fraction", frac(matched, scanned))
	m.set("optimizer.create_samples_s", "s", r0.boot.Samples)
	m.set("storage.load_s", "s", r0.boot.Load)
	m.set("sample.bytes", "bytes", float64(r0.rep.TotalBytes))
	m.set("maintenance.refresh_s", "s", median(pick(cycles, func(c refreshCycle) float64 { return c.RefreshS })))
	m.set("persistence.snapshot_s", "s", median(pick(cycles, func(c refreshCycle) float64 { return c.SnapshotS })))
	m.set("persistence.warm_load_s", "s", median(pick(warmBootsT, func(b bootTimes) float64 { return b.Samples })))
	m.set("persistence.restore_s", "s", median(pick(warmBootsT, func(b bootTimes) float64 { return b.Restore })))
	m.set("driver.lateness_ms_p99", "ms", lateP99)

	tp, err := tracedPass(cfg, d, r0.sched, r0.nWarm, r0.closedReqs, newDir)
	if err != nil {
		return nil, err
	}
	for _, p := range tp.problems {
		problem("%s", p)
	}
	for name, v := range tp.metrics {
		m[name] = v
	}
	rec["traced"] = tp.record
	return res, nil
}

// serveRound serves r's pre-warm, warm-up, measured open loop and closed
// loop (untraced runs) through in, computes ground truth on it, and stops
// it.
func serveRound(cfg config, in *instance, r *round, nproc int) error {
	w := cfg.w
	defer in.stop()
	runtime.GC()

	c := newClient(in.url, nproc)
	c.results = newResultSet() // the open loop's answers are kept for scoring
	in.ln.resetPeak()
	if w.prewarm {
		r.prewarm = openLoop(c, distinct(append(append([]request(nil), r.sched...), r.closedReqs...)), time.Now(), nproc)
	}
	var ref *refresher
	if w.refreshEvery > 0 {
		ref = startRefresher(in, w.refreshEvery)
	}
	var sWarm blinkdb.EngineStats
	start := time.Now().Add(10 * time.Millisecond)
	r.peakHeap = watch(func() { r.outs = openLoop(c, r.sched, start, nproc) }, start.Add(warmup), func() {
		sWarm, r.mWarm = in.eng.Stats(), in.srv.Metrics().Snapshot()
	})
	r.win = in.eng.Stats().Delta(sWarm)
	c.results = nil // the closed loop keeps verdicts only
	if !cfg.traced {
		r.peakHeap = max(r.peakHeap, watch(func() {
			r.closedOuts, r.closedDone = closedLoop(c, r.closedReqs, r.closedDur, nproc)
		}, time.Time{}, nil))
		// Later rounds' windows need not hold the list.
		r.closedLen, r.closedReqs = len(r.closedReqs), nil
	}
	if ref != nil {
		r.cycles = ref.finish()
	}
	c.close()
	r.connPeak, r.connAccept = in.ln.stats()
	r.mAll = in.srv.Metrics().Snapshot()
	r.tele = in.eng.Telemetry()

	var truthReqs []request
	for i, o := range r.outs {
		if o.verdict == served {
			truthReqs = append(truthReqs, r.sched[i])
		}
	}
	limit := maxTruth / rounds
	if cfg.traced {
		limit = maxTruth
	}
	var err error
	r.gt, err = groundTruth(in.eng, truthReqs, limit)
	return err
}

// persistCycle reopens a warm engine over dir persistPerRound times,
// timing each reopen until it answers first; with refresh set it also
// runs one refresh+snapshot cycle on each reopened engine.
func persistCycle(d *dataset, dir string, first *request, refresh bool) ([]bootTimes, []refreshCycle, error) {
	var boots []bootTimes
	var cycles []refreshCycle
	for i := 0; i < persistPerRound; i++ {
		in, bt, err := boot(d, dir, true, first)
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, bt)
		if refresh {
			cycles = append(cycles, refreshOnce(in, 0))
		}
		in.stop()
	}
	return boots, cycles, nil
}

// addStats sums two windows of engine counters.
func addStats(a, b blinkdb.EngineStats) blinkdb.EngineStats {
	s := blinkdb.EngineStats{
		PlanExecs:         a.PlanExecs + b.PlanExecs,
		ProbeExecs:        a.ProbeExecs + b.ProbeExecs,
		Prepares:          a.Prepares + b.Prepares,
		PlanCacheHits:     a.PlanCacheHits + b.PlanCacheHits,
		PlanCacheMisses:   a.PlanCacheMisses + b.PlanCacheMisses,
		ResultCacheHits:   a.ResultCacheHits + b.ResultCacheHits,
		ResultCacheMisses: a.ResultCacheMisses + b.ResultCacheMisses,
		ResultCacheShared: a.ResultCacheShared + b.ResultCacheShared,
		Admitted:          a.Admitted + b.Admitted,
		Shed:              a.Shed + b.Shed,
		Cancelled:         a.Cancelled + b.Cancelled,
		AnswersByLevel:    map[int]int64{},
	}
	for _, m := range []map[int]int64{a.AnswersByLevel, b.AnswersByLevel} {
		for level, n := range m {
			s.AnswersByLevel[level] += n
		}
	}
	return s
}

// answersOf counts the answers in a window of engine counters.
func answersOf(s blinkdb.EngineStats) int64 {
	var n int64
	for _, k := range s.AnswersByLevel {
		n += k
	}
	return n
}

// watch runs f while sampling the live Go heap (as marked by the last
// GC) every 20 ms and returns its peak. The heap between collections
// also holds garbage, whose amount depends on when GC happened to run;
// the live heap is what the program needs. When at is non-zero, mark
// runs once at that time and the peak restarts there.
func watch(f func(), at time.Time, mark func()) uint64 {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var peak uint64
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	marked := at.IsZero()
	for {
		select {
		case <-done:
			if !marked {
				mark()
			}
			return peak
		case now := <-tick.C:
			if !marked && !now.Before(at) {
				marked = true
				mark()
				peak = 0 // the peak is taken over the measured part only
			}
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64())
		}
	}
}

// hostProbe times a fixed integer loop for 100 ms and returns its rate
// in million steps per second. It touches nothing of the program.
func hostProbe() float64 {
	x, n := uint64(1), 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		n += 10000
	}
	if x == 0 { // keeps the loop from being optimized away
		n++
	}
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// latencySummary gives each template's request count and p50/p99 in ms.
func latencySummary(byTemplate map[string][]float64) map[string][3]float64 {
	out := map[string][3]float64{}
	for t, xs := range byTemplate {
		out[t] = [3]float64{float64(len(xs)), percentile(xs, 0.5), percentile(xs, 0.99)}
	}
	return out
}

// grades counts one template's bounded answers that met their bound, and
// its graded inexact cells that covered the exact value.
type grades struct{ Answers, Met, Cells, Covered int }

// tailQuantile splits latencies (in due order) into the most consecutive
// sub-windows that each hold ten or more samples beyond their q-quantile,
// and returns the median of those quantiles, with the quantiles: a stall
// on the host moves some sub-windows, not the result.
func tailQuantile(lat []float64, q float64) (float64, []float64) {
	k := max(1, int(float64(len(lat))*(1-q)/10+1e-9))
	p := make([]float64, k)
	for i := range p {
		p[i] = percentile(lat[i*len(lat)/k:(i+1)*len(lat)/k], q)
	}
	return median(p), p
}

// distinct returns the first request of each distinct query, due at once.
func distinct(reqs []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		if !seen[r.key()] {
			seen[r.key()] = true
			r.Due = 0
			out = append(out, r)
		}
	}
	return out
}

// distinctQueries sizes the schedule against the caches: distinct answers
// against the 1024-answer result cache, distinct templates against the
// 256-template plan cache.
func distinctQueries(reqs []request) map[string]any {
	answers := map[string]bool{}
	templates := map[string]bool{}
	for _, r := range reqs {
		answers[r.key()] = true
		if q, err := sqlparser.Parse(r.finalSQL()); err == nil {
			k, _ := sqlparser.Normalize(q)
			templates[k] = true
		}
	}
	return map[string]any{
		"requests": len(reqs), "distinct_answers": len(answers), "result_cache_capacity": 1024,
		"distinct_templates": len(templates), "plan_cache_capacity": 256,
	}
}

// answerKey fingerprints a served answer's cells, so coverage grades each
// distinct answer once.
func answerKey(r *wireResult) string {
	return fmt.Sprintf("%v", r.Rows)
}

// predOverObs is the median over templates of predicted (simulated
// cluster) over observed (wall) latency.
func predOverObs(s telemetry.Snapshot) float64 {
	var xs []float64
	for _, t := range s.Templates {
		if t.PredictedOverObservedLatency > 0 {
			xs = append(xs, t.PredictedOverObservedLatency)
		}
	}
	return median(xs)
}

// pick maps xs to the float64 values f extracts.
func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// refreshCycle is one RefreshSamples + SnapshotWarmup call pair.
type refreshCycle struct {
	AtS       float64  `json:"at_s"`
	RefreshS  float64  `json:"refresh_s"`
	SnapshotS float64  `json:"snapshot_s"`
	Columns   []string `json:"columns"`
	Err       string   `json:"error,omitempty"`
	// ResultMisses and PlanMisses are the engine's cumulative cache
	// misses just before the refresh; their growth by the next cycle shows
	// the refresh's epoch bump invalidated cached entries.
	ResultMisses int64 `json:"result_misses"`
	PlanMisses   int64 `json:"plan_misses"`
}

// refreshOnce runs and times one RefreshSamples + SnapshotWarmup pair.
func refreshOnce(in *instance, at float64) refreshCycle {
	cy := refreshCycle{AtS: at}
	s := in.eng.Stats()
	cy.ResultMisses, cy.PlanMisses = s.ResultCacheMisses, s.PlanCacheMisses
	t := time.Now()
	cols, ok, err := in.eng.RefreshSamples("sessions")
	cy.RefreshS = time.Since(t).Seconds()
	switch {
	case err != nil:
		cy.Err = "refresh: " + err.Error()
	case !ok:
		cy.Err = "refresh: table has no samples"
	}
	cy.Columns = cols
	t = time.Now()
	if err := in.eng.SnapshotWarmup(blinkdb.WarmupState{AdmissionEWMA: in.srv.ExportAdmissionEWMA()}); err != nil {
		cy.Err = "snapshot: " + err.Error()
	}
	cy.SnapshotS = time.Since(t).Seconds()
	return cy
}

// refresher is the one benchmark goroutine that refreshes samples and
// snapshots warmup state on a fixed period while the driver runs.
type refresher struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	cycles []refreshCycle
}

func startRefresher(in *instance, every time.Duration) *refresher {
	r := &refresher{stop: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		begin := time.Now()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.cycles = append(r.cycles, refreshOnce(in, time.Since(begin).Seconds()))
			}
		}
	}()
	return r
}

// finish stops the refresher, waits for it, and returns its cycles.
func (r *refresher) finish() []refreshCycle {
	close(r.stop)
	r.wg.Wait()
	return r.cycles
}

// checkInvalidation requires every complete refresh period to show at
// least one epoch invalidation: result-cache misses grow between one
// refresh and the next, since the hot set was cached before the refresh
// and must re-execute after it. The last period is cut short by the end
// of the run and is not checked.
func checkInvalidation(cs []refreshCycle, problem func(string, ...any)) {
	if len(cs) < 2 {
		problem("refresh-churn ran %d refresh cycles, want at least 2", len(cs))
		return
	}
	for i := 0; i+1 < len(cs); i++ {
		if cs[i+1].ResultMisses <= cs[i].ResultMisses {
			problem("refresh at %.2fs: no result-cache invalidation before the next period", cs[i].AtS)
		}
	}
}
