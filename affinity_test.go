package blinkdb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// affinityQueries covers exact, error-bounded, time-bounded, grouped and
// disjunctive execution through the public API.
var affinityQueries = []string{
	`SELECT COUNT(*) FROM sessions`,
	`SELECT AVG(sessiontime), MEDIAN(sessiontime) FROM sessions GROUP BY city`,
	`SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' ERROR WITHIN 5% AT CONFIDENCE 95%`,
	`SELECT COUNT(*) FROM sessions WHERE city = 'SF' GROUP BY os WITHIN 2 SECONDS`,
	`SELECT SUM(sessiontime) FROM sessions WHERE city = 'NY' OR os = 'Linux' ERROR WITHIN 10%`,
	`SELECT COUNT(*) FROM sessions WHERE city = 'Atlantis'`,
}

// TestAffinityEquivalenceEndToEnd is the shard-affine scheduler's
// public-API acceptance check: engines differing only in worker count
// return DeepEqual-identical results to Workers: 1 — estimates, error
// bars, plan decisions, scan counters AND simulated latency, since the
// cluster model prices block placement, not the worker count.
func TestAffinityEquivalenceEndToEnd(t *testing.T) {
	const rows = 30000
	base := Config{Scale: 1e4, Seed: 7, CacheTables: true, Workers: 1}
	want := make([]*Result, len(affinityQueries))
	{
		ref := demoEngineCfg(t, rows, base)
		for i, src := range affinityQueries {
			res, err := ref.Query(src)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			want[i] = res
		}
	}
	for _, workers := range []int{2, 8} {
		cfg := base
		cfg.Workers = workers
		eng := demoEngineCfg(t, rows, cfg)
		for i, src := range affinityQueries {
			got, err := eng.Query(src)
			if err != nil {
				t.Fatalf("%q (workers=%d): %v", src, workers, err)
			}
			if !reflect.DeepEqual(want[i], got) {
				t.Errorf("%q: workers=%d diverged from the reference\nwant %+v\ngot  %+v",
					src, workers, want[i], got)
			}
		}
	}
}

// stripPlanCache normalizes the plan- and result-cache outcome markers
// so results can be compared across cold (miss), warm (hit) and
// singleflight (shared) servings — the ANSWER must be bit-identical in
// every case; only the annotations differ.
func stripPlanCache(res *Result) *Result {
	cp := *res
	cp.PlanCache = ""
	cp.ResultCache = ""
	for _, marker := range []string{
		"; cache=hit", "; cache=miss",
		"; result=hit", "; result=miss", "; result=shared",
	} {
		cp.Explanation = strings.ReplaceAll(cp.Explanation, marker, "")
	}
	return &cp
}

// TestConcurrentQuerySmoke hammers one engine from many goroutines — the
// north-star workload is heavy multi-user traffic, and the catalog's
// RWMutex plus the ELP runtime's probe path had no engine-level
// concurrency coverage. Run under -race in CI; every concurrent answer
// must equal the serial one (queries are read-only and deterministic;
// with the default plan cache the serial warm-up is the miss that
// prepares each template and every concurrent replay is a hit, so
// results are compared modulo the cache=hit|miss marker).
func TestConcurrentQuerySmoke(t *testing.T) {
	eng := demoEngine(t, 20000)
	want := make([]*Result, len(affinityQueries))
	for i, src := range affinityQueries {
		res, err := eng.Query(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		want[i] = stripPlanCache(res)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(affinityQueries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				// Offset the query order per goroutine so different
				// queries overlap in flight.
				for k := range affinityQueries {
					i := (k + g) % len(affinityQueries)
					res, err := eng.Query(affinityQueries[i])
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %q: %v", g, affinityQueries[i], err)
						return
					}
					if !reflect.DeepEqual(want[i], stripPlanCache(res)) {
						errs <- fmt.Errorf("goroutine %d: %q: concurrent result diverged from serial", g, affinityQueries[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
