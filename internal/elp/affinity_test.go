package elp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// TestProbeOncePerFamilyView is the double-probe regression test: one
// bounded query must execute at most one plan run per (family, view).
// Before the fix, selectFamily probed every candidate's smallest sample
// and selectResolution re-ran the identical probe on the winner; with
// delta reuse the final read then re-executed the same view a third time.
func TestProbeOncePerFamilyView(t *testing.T) {
	f := newFixture(t, 30000, Options{})

	// No covering family: φ = {genre} intersects neither [city] nor
	// [os,url], so all 3 families (2 stratified + uniform) are probed.
	// The loose bound keeps the chosen level at the probe level, so the
	// probe answer doubles as the final answer: exactly 3 executions.
	before := f.rt.Stats()
	resp, err := f.rt.Run(context.Background(), parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decisions[0].UsedBase {
		t.Fatal("25% bound should be satisfiable from samples")
	}
	after := f.rt.Stats()
	if got, probed := after.PlanExecs-before.PlanExecs, len(resp.Decisions[0].Probed); got != int64(probed) {
		t.Errorf("probe path ran the executor %d times for %d probed families; each (family, view) must execute at most once",
			got, probed)
	}
	if got := after.ProbeExecs - before.ProbeExecs; got != int64(len(resp.Decisions[0].Probed)) {
		t.Errorf("Stats.ProbeExecs advanced by %d, want %d", got, len(resp.Decisions[0].Probed))
	}

	// Covering family: no selectFamily probes; selectResolution runs the
	// one probe and the final answer reuses it — exactly 1 execution.
	before = f.rt.Stats()
	resp, err = f.rt.Run(context.Background(), parse(t, `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decisions[0].UsedBase {
		t.Fatal("25% bound should be satisfiable from samples")
	}
	chosen := resp.Decisions[0].View.Level
	want := int64(1)
	if pv := f.rt.probeView(resp.Decisions[0].View.Family); chosen != pv.Level {
		want = 2 // final read on a strictly larger view is a new (family, view)
	}
	if got := f.rt.Stats().PlanExecs - before.PlanExecs; got != want {
		t.Errorf("covering path ran the executor %d times, want %d", got, want)
	}
}

// TestUniformFamilyReasonLabel pins the EXPLAIN fix: when the winning
// probed family is the uniform one, Reason names it "uniform" instead of
// formatting its empty column set.
func TestUniformFamilyReasonLabel(t *testing.T) {
	// A catalog with ONLY a uniform family forces the probe path (a
	// filtered query has non-empty φ and nothing covers it) and a uniform
	// winner.
	f := newFixture(t, 20000, Options{})
	cat := catalog.New()
	cat.Register(f.tab)
	uf, err := sample.BuildUniform(f.tab, sample.GeometricCaps(4000, 4, 4, 16),
		sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddFamily("sessions", uf); err != nil {
		t.Fatal(err)
	}
	rt := New(cat, cluster.New(cluster.PaperConfig()), Options{})
	resp, err := rt.Run(context.Background(), parse(t, `SELECT COUNT(*) FROM sessions WHERE genre = 'drama' ERROR WITHIN 25%`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reason := resp.Decisions[0].Reason
	if !strings.Contains(reason, "on uniform") {
		t.Errorf("Reason = %q, want the uniform family named explicitly", reason)
	}
	// And Label keeps stratified families as their column sets.
	if got := uf.Label(); got != "uniform" {
		t.Errorf("Label(uniform) = %q", got)
	}
	strat, err := sample.Build(f.tab, types.NewColumnSet("city"), sample.GeometricCaps(512, 4, 2, 8),
		sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := strat.Label(); got != strat.Phi.String() || got == "uniform" {
		t.Errorf("Label(stratified) = %q", got)
	}
}

// TestAffinityEquivalenceELP: the full ELP pipeline — probes, family and
// resolution selection, latency attribution, final estimates — returns a
// DeepEqual-identical Response under the shard-affine executor for worker
// counts 2 and 8 as for Workers: 1. Latencies are included: attribution
// prices block placement, never the worker count.
func TestAffinityEquivalenceELP(t *testing.T) {
	f := newFixture(t, 30000, Options{})
	queries := []string{
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 10%`,
		`SELECT COUNT(*) FROM sessions WHERE genre = 'western' ERROR WITHIN 25%`,
		`SELECT AVG(time), MEDIAN(time) FROM sessions WHERE city = 'city2' GROUP BY os WITHIN 5 SECONDS`,
		`SELECT SUM(time) FROM sessions WHERE city = 'city1' OR os = 'Win7' ERROR WITHIN 20%`,
	}
	for _, src := range queries {
		q := parse(t, src)
		want, err := New(f.cat, f.clus, Options{Workers: 1}).Run(context.Background(), q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := New(f.cat, f.clus, Options{Workers: workers}).Run(context.Background(), q, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: response differs from workers=1\nwant %+v\ngot  %+v",
					src, workers, want, got)
			}
		}
	}
}
