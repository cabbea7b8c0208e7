package main

import (
	"context"
	"fmt"
	"math"

	"blinkdb"
)

// truth maps unbounded SQL to its exact answer: unbounded execution of the
// same SQL on the same engine, computed outside the timed window.
type truth map[string]*blinkdb.Result

// maxTruth caps how many distinct queries get an exact answer per run,
// shared evenly by its rounds.
const maxTruth = 400

// groundTruth answers up to limit distinct queries of reqs exactly.
// Unbounded requests come first (every one is checked); bounded requests
// fill the rest in schedule order, a fixed subset for a given seed.
func groundTruth(eng *blinkdb.Engine, reqs []request, limit int) (truth, error) {
	t := truth{}
	add := func(sql string) error {
		if _, ok := t[sql]; ok || len(t) >= limit {
			return nil
		}
		res, err := eng.QueryCtx(context.Background(), sql)
		if err != nil {
			return fmt.Errorf("ground truth for %q: %w", sql, err)
		}
		t[sql] = res
		return nil
	}
	for _, r := range reqs {
		if !r.bounded() {
			if err := add(r.SQL); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range reqs {
		if err := add(r.SQL); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// coverage counts a served answer's inexact cells and how many of them
// hold the exact value within their reported bound. Groups absent from
// the exact answer cannot occur (samples hold base rows); groups absent
// from the served answer have no cell to grade.
func coverage(got *wireResult, want *blinkdb.Result) (inexact, covered int) {
	exact := make(map[string][]blinkdb.Cell, len(want.Rows))
	for _, row := range want.Rows {
		exact[row.Group] = row.Cells
	}
	for _, row := range got.Rows {
		cells, ok := exact[row.Group]
		if !ok {
			continue
		}
		for j, c := range row.Cells {
			if c.Exact || j >= len(cells) {
				continue
			}
			inexact++
			if math.Abs(c.Value-cells[j].Value) <= c.Bound {
				covered++
			}
		}
	}
	return inexact, covered
}

// meetsBound grades a served answer against the request's bounds the way
// loadgen grades them: every inexact cell's relative error within the
// requested percentage (cells with undefined relative error, -1 on the
// wire, skipped), and the simulated latency within the time bound.
func meetsBound(r request, res *wireResult) bool {
	const eps = 1e-9
	if r.ErrorPct > 0 {
		for _, row := range res.Rows {
			for _, c := range row.Cells {
				if c.Exact || c.RelErr < 0 {
					continue
				}
				if c.RelErr*100 > r.ErrorPct+eps {
					return false
				}
			}
		}
	}
	return r.TimeSec <= 0 || res.SimLatencySeconds <= r.TimeSec+eps
}
