package elp

// Streaming refinements (the serving-side face of §4.4).
//
// Streaming is not a second way to run a query: Run with a non-nil emit
// makes the same ELP decision as Run without one, through the same cache,
// singleflight and fallback code, and additionally shows the cheaper
// resolutions of the delta chain on the way to the final answer. This
// file holds only that extra step, which executeParams calls before the
// final scan when it was handed an emitter.
//
// A family stores its resolutions as non-overlapping delta block sets, so
// a query that will finally be answered at resolution F has a natural
// chain of cheaper answers along the way: the probe resolution pv, then
// pv+1, …, F−1, each adding one delta's worth of blocks.
// streamIntermediates walks that chain and emits one Refinement per
// level, so a client sees a first (coarse, wide-bound) answer long before
// the final one.
//
// # Why refinements rescan the prefix
//
// A Horvitz-Thompson weight in this engine is per-row w = max(1, f/K_ℓ):
// it depends on the LEVEL CAP, not just the row. Partial aggregates
// accumulated at cap K_ℓ therefore cannot be folded into an answer at cap
// K_{ℓ+1} — summing delta-partials across caps gives Σ(K_d−K_{d−1})·f/K_d
// ≠ f, a biased estimator with no scalar correction. The engine's
// existing §4.4 delta-reuse path resolves the same tension by rescanning
// the pruned 0..ℓ prefix while CHARGING only the delta blocks (the
// probe's blocks are memory-resident; the simulated cluster prices what a
// real cluster would newly read). Streaming follows that exact house
// semantics: each refinement scans the prefix at its own cap — through
// the per-level memo, so repeated sessions of one template scan nothing —
// and its SimLatency is the delta-priced cumulative cost, monotonically
// approaching the final's.
//
// # The final refinement
//
// The final refinement is the response Run returns, computed after the
// intermediates by the same final scan a non-streaming Run performs — so
// it is DeepEqual (including latencies and cache markers) to a
// non-streaming Run.
// Intermediate refinements add executor invocations (visible in
// Stats.PlanExecs) but never perturb the final answer; with
// Options.DeltaReuse disabled, or when the chain has a single step
// (result-cache hit, singleflight share, exact template, probe already at
// the final level), the session is exactly one final refinement.

import (
	"context"
	"fmt"

	"blinkdb/internal/exec"
	"blinkdb/internal/telemetry"
)

// Refinement is one streamed answer of a refinement session. Non-final
// refinements are intermediate answers at coarser resolutions; the final
// refinement carries the response Run returns.
type Refinement struct {
	// Resp is the full response at this refinement's resolution. Callers
	// must treat it as read-only: results may be shared with the runtime's
	// memo and caches.
	Resp *Response
	// Level is the sample resolution that produced this refinement (max
	// across disjuncts; -1 = base table).
	Level int
	// Seq numbers refinements from 0 within the session.
	Seq int
	// Final marks the last refinement of the session.
	Final bool
}

// midEmitter receives one intermediate (pre-final) refinement response;
// a nil midEmitter means the caller is not streaming.
type midEmitter func(resp *Response, level int) error

// responseLevel is the resolution a response was served at: the max level
// across its decisions, -1 when any disjunct used the base table.
func responseLevel(resp *Response) int {
	level := 0
	for _, d := range resp.Decisions {
		if d.UsedBase {
			return -1
		}
		if d.View.Level > level {
			level = d.View.Level
		}
	}
	return level
}

// streamIntermediates emits the pre-final refinements: per disjunct the
// §4.4 level chain pv.Level..final−1, aligned across disjuncts (a
// disjunct whose chain is exhausted contributes its final-level answer,
// served from the memo when the final step re-reads it). Each step
// re-merges and re-applies LIMIT so every refinement is a complete,
// well-formed response.
func (rt *Runtime) streamIntermediates(ctx context.Context, pq *PreparedQuery, plan *exec.Plan,
	subs []*exec.Plan, lcs []levelChoice, conf float64, paramsEq bool, sp *telemetry.Span, emitMid midEmitter) error {

	if !*rt.opt.DeltaReuse {
		return nil // ablation: no delta chain, single final refinement
	}
	chains := make([][]int, len(subs))
	steps := 0
	for i, lc := range lcs {
		if lc.level < 0 {
			continue // base-table disjunct: no resolution chain
		}
		pd := pq.disjuncts[i]
		for l := pd.pv.Level; l < lc.level; l++ {
			chains[i] = append(chains[i], l)
		}
		if len(chains[i]) > steps {
			steps = len(chains[i])
		}
	}
	if steps == 0 {
		return nil
	}
	// Session-local memo: when paramsEq the shared per-level memo already
	// deduplicates; when not, it keeps one session from scanning the same
	// level twice across steps.
	local := make([]map[int]*exec.Result, len(subs))
	for i := range local {
		local[i] = make(map[int]*exec.Result)
	}
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var rsp *telemetry.Span
		if sp != nil {
			rsp = sp.Child(fmt.Sprintf("refinement %d", s))
		}
		stepLevel := -1
		var parts []*exec.Result
		var decs []Decision
		simLatency := 0.0
		for i := range subs {
			pd := pq.disjuncts[i]
			level := lcs[i].level
			if s < len(chains[i]) {
				level = chains[i][s]
			}
			res, err := rt.scanStreamLevel(ctx, pq, pd, subs[i], conf, paramsEq, level, local[i], rsp)
			if err != nil {
				rsp.End()
				return err
			}
			dec := rt.refineDecision(pq, pd, subs[i], lcs[i], level, conf)
			parts = append(parts, res)
			decs = append(decs, dec)
			if l := dec.Latency(); l > simLatency {
				simLatency = l
			}
			if level > stepLevel {
				stepLevel = level
			}
		}
		merged := mergeLimit(plan, parts)
		if rsp != nil {
			rsp.Note(fmt.Sprintf("level=%d", stepLevel))
		}
		rsp.End()
		resp := &Response{Result: merged, Decisions: decs, SimLatency: simLatency, Confidence: conf}
		if err := emitMid(resp, stepLevel); err != nil {
			return err
		}
	}
	return nil
}

// scanStreamLevel produces one disjunct's answer at one chain level:
// probe reuse at the probe's own level, the shared per-level memo
// otherwise, with the session-local map preventing intra-session rescans
// when the shared memo is unusable (parameters differ from prepare).
// Unlike scanConjunctive it does not count toward AnswersByLevel — only
// final answers do.
func (rt *Runtime) scanStreamLevel(ctx context.Context, pq *PreparedQuery, pd *prepDisjunct, plan *exec.Plan,
	conf float64, paramsEq bool, level int, local map[int]*exec.Result, sp *telemetry.Span) (*exec.Result, error) {

	if level < 0 {
		return pd.baseMemo(ctx, rt, plan, pq.entry.Table, conf, pq.joins, paramsEq, sp)
	}
	if r, ok := local[level]; ok {
		return r, nil
	}
	var res *exec.Result
	if level == pd.pv.Level && paramsEq {
		res = pd.probe
	} else {
		in, _ := viewInput(pd.fam.View(level), plan)
		r, err := pd.runMemo(ctx, rt, level, plan, in, conf, pq.joins, paramsEq, sp)
		if err != nil {
			return nil, err
		}
		res = r
	}
	local[level] = res
	return res, nil
}

// refineDecision derives an intermediate refinement's Decision from the
// final level choice: same probe accounting, but the view, projected
// bound and delta-priced read latency of the intermediate level. The
// cumulative ReadLatency (delta blocks pv..level) grows monotonically
// toward the final decision's, mirroring what a client progressively
// pays. At the disjunct's final level the final Decision is reported
// verbatim.
func (rt *Runtime) refineDecision(pq *PreparedQuery, pd *prepDisjunct, plan *exec.Plan,
	lc levelChoice, level int, conf float64) Decision {

	if level < 0 || level == lc.level {
		return lc.dec
	}
	fam, pv, probe := pd.fam, pd.pv, pd.probe
	dec := lc.dec
	view := fam.View(level)
	dec.View = view
	dec.PredictedBound = predictedBound(fam, probe, level, pv, conf)
	dec.ReadLatency = rt.latencyOf(prunedBlocks(view.DeltaBlocks(pv), plan)) + rt.broadcastCost(pq.joins)
	dec.Reason += fmt.Sprintf("; streaming refinement at resolution %d/%d (K=%d)", level, fam.Resolutions()-1, view.Cap())
	return dec
}
