package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"blinkdb"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/telemetry"
)

// maxReplay caps the traced pass: the first requests of the schedule,
// warm-up included, so cache state matches the measured run's.
const maxReplay = 1000

type tracedResult struct {
	metrics  metricSet
	record   map[string]any
	problems []string
}

// tracedPass replays the schedule with one client through three
// identically built engines in lockstep, so all three caches see the same
// request history: engine A behind server.ServeHTTP into a response
// recorder, engine B through the same untraced Engine call the server
// makes (QueryCtx, or QueryStream for streamed requests), and engine C
// through Engine.QueryTraced. A's ServeHTTP time minus B's engine time is
// the serving layer's own time; C's span tree splits the engine time into
// layers. Every span outside the engine is timed here, around public calls.
func tracedPass(cfg config, d *dataset, sched []request, nWarm int, closedReqs []request, newDir func() string) (*tracedResult, error) {
	tp := &tracedResult{metrics: metricSet{}, record: map[string]any{}}
	var engines []*instance
	defer func() {
		for _, in := range engines {
			in.stop()
		}
	}()
	for i := 0; i < 3; i++ {
		in, _, err := boot(d, newDir(), false, nil)
		if err != nil {
			return nil, err
		}
		engines = append(engines, in)
	}
	a, b, c := engines[0], engines[1], engines[2]

	mismatches := 0
	// step sends r to all three engines, checks they agree, and returns
	// A's ServeHTTP time, B's and C's engine call times and C's spans.
	step := func(r request) (dA, dB, dC time.Duration, tr *telemetry.Trace, err error) {
		got, dA, err := serveCall(a, r)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		resB, _, dB, err := engineCall(b.eng, r, false)
		if err != nil {
			return 0, 0, 0, nil, fmt.Errorf("engine B on %q: %w", r.finalSQL(), err)
		}
		resC, tr, dC, err := engineCall(c.eng, r, true)
		if err != nil {
			return 0, 0, 0, nil, fmt.Errorf("engine C on %q: %w", r.finalSQL(), err)
		}
		for _, res := range []*blinkdb.Result{resB, resC} {
			if err := sameResult(got, res); err != nil {
				mismatches++
				if mismatches == 1 {
					tp.problems = append(tp.problems, fmt.Sprintf("lockstep engines disagree on %q: %v", r.finalSQL(), err))
				}
			}
		}
		return dA, dB, dC, tr, nil
	}
	if cfg.w.prewarm {
		for _, r := range distinct(append(append([]request(nil), sched...), closedReqs...)) {
			if _, _, _, _, err := step(r); err != nil {
				return nil, err
			}
		}
	}

	reqs := sched[:min(len(sched), maxReplay)]
	nextRefresh := cfg.w.refreshEvery
	var parseUS, normUS, serverUS []float64
	layerUS := map[string][]float64{} // raw traced µs per request, over requests reaching the layer
	fold := map[string]float64{}      // µs per layer over traced requests, scaled to untraced time
	var requestUS, engineUS float64
	traced := 0
	for i, r := range reqs {
		if cfg.w.refreshEvery > 0 && r.Due >= nextRefresh {
			for _, in := range engines {
				if cy := refreshOnce(in, r.Due.Seconds()); cy.Err != "" {
					tp.problems = append(tp.problems, "traced pass "+cy.Err)
				}
			}
			nextRefresh += cfg.w.refreshEvery
		}
		final := r.finalSQL()
		t := time.Now()
		q, err := sqlparser.Parse(final)
		parse := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", final, err)
		}
		t = time.Now()
		sqlparser.Normalize(q)
		norm := time.Since(t)
		dA, dB, dC, tr, err := step(r)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if i < nWarm {
			continue
		}
		parseUS = append(parseUS, us(parse))
		normUS = append(normUS, us(norm))
		serverUS = append(serverUS, us(dA-dB))
		if tr == nil {
			continue // streamed: QueryStream returns no span tree
		}
		// C's layers add up to C's call: the spans under the root, plus
		// the Engine API wrapper around the root (parse, result build).
		// Per-layer times are reported raw; the fold scales them by B/C,
		// removing tracing's slowdown, so with the serving layer (A - B)
		// they add up to A's request.
		raw := map[string]float64{"engine.api": us(dC - tr.Root().Duration())}
		attribute(tr.Root(), 1, raw)
		scale := float64(dB) / float64(dC)
		for name, v := range raw {
			if name != "engine.api" {
				layerUS[name] = append(layerUS[name], v)
			}
			fold[name] += v * scale
		}
		fold["server"] += us(dA - dB)
		requestUS += us(dA)
		engineUS += us(dB)
		traced++
	}
	if mismatches > 0 {
		tp.problems = append(tp.problems, fmt.Sprintf("lockstep engines disagree on %d answers", mismatches))
	}

	m := tp.metrics
	m.set("server.self_us_p50", "us", median(serverUS))
	m.set("sqlparser.parse_us_p50", "us", median(parseUS))
	m.set("sqlparser.normalize_us_p50", "us", median(normUS))
	m.set("resultcache.lookup_us_p50", "us", median(layerUS["resultcache.lookup"]))
	m.set("plancache.lookup_us_p50", "us", median(layerUS["plancache.lookup"]))
	m.set("elp.prepare_us_p50", "us", median(layerUS["elp.prepare"]))
	m.set("exec.scan_us_p50", "us", median(layerUS["exec.scan"]))
	m.set("exec.scan_us_p99", "us", percentile(layerUS["exec.scan"], 0.99))
	m.set("exec.merge_us_p50", "us", median(layerUS["exec.merge"]))
	m.set("exec.scan_share", "fraction", fold["exec.scan"]/engineUS)
	m.set("telemetry.trace_overhead_frac", "fraction", traceOverhead(b.eng, closedReqs))

	type row struct {
		Layer    string  `json:"layer"`
		TotalUS  float64 `json:"total_us"`
		Share    float64 `json:"share_of_request"`
		Requests int     `json:"requests_reaching"`
	}
	var rows []row
	sum := 0.0
	for name, v := range fold {
		rows = append(rows, row{name, v, v / requestUS, len(layerUS[name])})
		sum += v
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalUS > rows[j].TotalUS })
	tp.record["replayed"] = len(reqs)
	tp.record["traced_requests"] = traced
	tp.record["request_us_total"] = requestUS
	tp.record["layer_fold"] = rows
	tp.record["layer_fold_sum_over_request"] = sum / requestUS
	return tp, nil
}

// serveCall sends r through in's server handler into a response recorder
// and returns the final frame's result and the handler's time.
func serveCall(in *instance, r request) (*wireResult, time.Duration, error) {
	hreq, err := newHTTPRequest(context.Background(), "http://perfbench", r)
	if err != nil {
		return nil, 0, err
	}
	rr := httptest.NewRecorder()
	t := time.Now()
	in.srv.ServeHTTP(rr, hreq)
	d := time.Since(t)
	o := readFrames(outcome{}, rr.Body, r.Stream, time.Now(), nil)
	if rr.Code != 200 || o.verdict != served {
		return nil, 0, fmt.Errorf("engine A answered %q with %d: %s", r.finalSQL(), rr.Code, o.detail)
	}
	return o.final.Result, d, nil
}

// engineCall runs r's final SQL on eng the way the server does (QueryCtx,
// or QueryStream when r streams), or through QueryTraced when trace is
// set and r does not stream; it returns the final result and call time.
func engineCall(eng *blinkdb.Engine, r request, trace bool) (*blinkdb.Result, *telemetry.Trace, time.Duration, error) {
	final := r.finalSQL()
	ctx := context.Background()
	t := time.Now()
	switch {
	case r.Stream:
		var res *blinkdb.Result
		err := eng.QueryStream(ctx, final, func(u blinkdb.StreamUpdate) error {
			if u.Final {
				res = u.Result
			}
			return nil
		})
		return res, nil, time.Since(t), err
	case trace:
		res, tr, err := eng.QueryTraced(final)
		return res, tr, time.Since(t), err
	default:
		res, err := eng.QueryCtx(ctx, final)
		return res, nil, time.Since(t), err
	}
}

// spanLayer maps engine span names (by prefix) to the layer they time.
var spanLayer = map[string][]string{
	"sqlparser.normalize": {"normalize"},
	"resultcache.lookup":  {"result-cache lookup"},
	"plancache.lookup":    {"plan-cache lookup"},
	"elp.execute":         {"execute", "cancelled-leader re-execute", "stale-shared re-execute"},
	"elp.prepare":         {"prepare", "probe"},
	"exec.scan":           {"bind+scan", "scan blocks=", "shard", "range", "partials", "refinement", "join-index build"},
	"exec.merge":          {"merge"},
	"elp.materialize":     {"materialize"},
}

func layerOf(span string) string {
	for layer, prefixes := range spanLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(span, p) {
				return layer
			}
		}
	}
	if span == "query" {
		return "elp.query"
	}
	return "other"
}

// attribute splits span s's wall time, scaled by f, over layers without
// double counting: s's own layer gets the part of its interval no child
// covers, and each cluster of overlapping children (parallel shards)
// shares the wall time the cluster covers in proportion to the children's
// durations. The attributed times of a root add up to its duration.
func attribute(s *telemetry.Span, f float64, acc map[string]float64) {
	lo, hi := s.Start(), s.Start().Add(s.Duration())
	kids := s.Children()
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start().Before(kids[j].Start()) })
	covered := time.Duration(0)
	for i := 0; i < len(kids); {
		// One cluster: children whose clipped intervals chain-overlap.
		cs, ce := clip(kids[i], lo, hi)
		j := i + 1
		for j < len(kids) {
			ks, ke := clip(kids[j], lo, hi)
			if ks.After(ce) {
				break
			}
			if ke.After(ce) {
				ce = ke
			}
			j++
		}
		wall := ce.Sub(cs)
		if wall > 0 {
			covered += wall
			sum := time.Duration(0)
			for _, k := range kids[i:j] {
				sum += k.Duration()
			}
			for _, k := range kids[i:j] {
				if sum > 0 {
					attribute(k, f*float64(wall)/float64(sum), acc)
				}
			}
		}
		i = j
	}
	acc[layerOf(s.Name())] += f * us(s.Duration()-covered)
}

// clip returns k's interval clipped to [lo, hi].
func clip(k *telemetry.Span, lo, hi time.Time) (time.Time, time.Time) {
	s, e := k.Start(), k.Start().Add(k.Duration())
	if s.Before(lo) {
		s = lo
	}
	if e.After(hi) {
		e = hi
	}
	if e.Before(s) {
		e = s
	}
	return s, e
}

// sameResult compares a served answer with an engine Result: the same
// groups in the same order and bit-identical cells. Against an exact
// answer it also requires every served cell to be exact.
func sameResult(got *wireResult, want *blinkdb.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d groups, want %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		w := want.Rows[i]
		if row.Group != w.Group || len(row.Cells) != len(w.Cells) {
			return fmt.Errorf("group %q, want %q", row.Group, w.Group)
		}
		for j, c := range row.Cells {
			wc := w.Cells[j]
			if c.Value != wc.Value || c.Bound != wc.Bound || c.Exact != wc.Exact {
				return fmt.Errorf("group %q cell %d: %v±%v, want %v±%v", row.Group, j, c.Value, c.Bound, wc.Value, wc.Bound)
			}
		}
	}
	return nil
}

// traceOverhead alternates untraced (QueryCtx) and traced (QueryTraced)
// closed loops of one client on eng, three rounds of 300 ms each, and
// returns 1 - traced/untraced throughput (medians over rounds).
func traceOverhead(eng *blinkdb.Engine, reqs []request) float64 {
	var plain, traced []float64
	pos := 0
	for round := 0; round < 3; round++ {
		for _, withTrace := range []bool{false, true} {
			n := 0
			t := time.Now()
			for time.Since(t) < 300*time.Millisecond {
				sql := reqs[pos%len(reqs)].finalSQL()
				pos++
				if withTrace {
					_, _, _ = eng.QueryTraced(sql) // answers were checked in the replay
				} else {
					_, _ = eng.QueryCtx(context.Background(), sql)
				}
				n++
			}
			qps := float64(n) / time.Since(t).Seconds()
			if withTrace {
				traced = append(traced, qps)
			} else {
				plain = append(plain, qps)
			}
		}
	}
	return 1 - median(traced)/median(plain)
}
