package exec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

func sessionsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "url", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "browser", Kind: types.KindString},
		types.Column{Name: "sessiontime", Kind: types.KindFloat},
	)
}

// paperTable builds Table 3 from §4.3 verbatim.
func paperTable(t testing.TB) *storage.Table {
	t.Helper()
	tab := storage.NewTable("sessions", sessionsSchema())
	b := storage.NewBuilder(tab, 16, 1, storage.InMemory)
	rows := []struct {
		url, city, browser string
		time               float64
	}{
		{"cnn.com", "New York", "Firefox", 15},
		{"yahoo.com", "New York", "Firefox", 20},
		{"google.com", "Berkeley", "Firefox", 85},
		{"google.com", "New York", "Safari", 82},
		{"bing.com", "Cambridge", "IE", 22},
	}
	for _, r := range rows {
		b.AppendRow(types.Row{
			types.Str(r.url), types.Str(r.city), types.Str(r.browser), types.Float(r.time),
		})
	}
	return b.Finish()
}

// runOpt runs p under a context that is never cancelled, so Run's error
// is always nil.
func runOpt(p *Plan, in Input, opt Options) *Result {
	res, _ := Run(context.Background(), p, in, opt)
	return res
}

func compile(t testing.TB, src string, schema *types.Schema) *Plan {
	t.Helper()
	q, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExactSumGroupByOnBaseTable(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT SUM(sessiontime) FROM sessions GROUP BY city`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	want := map[string]float64{"Berkeley": 85, "Cambridge": 22, "New York": 117}
	for _, g := range res.Groups {
		e := g.Estimates[0]
		if math.Abs(e.Point-want[g.KeyString()]) > 1e-9 {
			t.Errorf("%s = %g, want %g", g.KeyString(), e.Point, want[g.KeyString()])
		}
		if !e.Exact || e.Bound != 0 {
			t.Errorf("%s should be exact", g.KeyString())
		}
	}
	if res.RowsScanned != 5 || res.RowsMatched != 5 {
		t.Errorf("scanned/matched = %d/%d", res.RowsScanned, res.RowsMatched)
	}
}

// TestPaperStratifiedExample reproduces §4.3's Table 4 exactly: the sample
// stratified on Browser with K=1 keeps the yahoo/Firefox row at rate 1/3
// and the Safari and IE rows at rate 1. SUM(SessionTime) GROUP BY City
// must estimate 3·20+82 = 142 for New York and 22 for Cambridge, with no
// Berkeley row (subset error on stratified-on-wrong-column samples).
func TestPaperStratifiedExample(t *testing.T) {
	schema := sessionsSchema()
	samp := storage.NewTable("sessions_browser_k1", schema)
	b := storage.NewBuilder(samp, 16, 1, storage.InMemory)
	add := func(url, city, browser string, time float64, rate float64) {
		// Encode the rate via StratumFreq = round(1/rate) with cap 1.
		b.Append(types.Row{types.Str(url), types.Str(city), types.Str(browser), types.Float(time)},
			storage.RowMeta{Rate: 1, StratumFreq: int64(math.Round(1 / rate))})
	}
	add("yahoo.com", "New York", "Firefox", 20, 1.0/3.0)
	add("google.com", "New York", "Safari", 82, 1.0)
	add("bing.com", "Cambridge", "IE", 22, 1.0)
	b.Finish()

	p := compile(t, `SELECT SUM(sessiontime) FROM sessions GROUP BY city`, schema)
	res := runOpt(p, FromBlocks(schema, samp.Blocks, 1), Options{Confidence: 0.95})
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d (Berkeley must be missing)", len(res.Groups))
	}
	got := map[string]float64{}
	for _, g := range res.Groups {
		got[g.KeyString()] = g.Estimates[0].Point
	}
	if math.Abs(got["New York"]-142) > 1e-9 {
		t.Errorf("New York = %g, want 142 (= 3·20 + 82)", got["New York"])
	}
	if math.Abs(got["Cambridge"]-22) > 1e-9 {
		t.Errorf("Cambridge = %g, want 22", got["Cambridge"])
	}
}

func TestWhereFilterAndSelectivity(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions WHERE city = 'New York'`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	if got := res.Groups[0].Estimates[0].Point; got != 3 {
		t.Errorf("count = %g", got)
	}
	if s := res.Selectivity(); math.Abs(s-0.6) > 1e-9 {
		t.Errorf("selectivity = %g", s)
	}
}

func TestMultipleAggregates(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime), MEDIAN(sessiontime) FROM sessions`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	e := res.Groups[0].Estimates
	if e[0].Point != 5 {
		t.Errorf("count = %g", e[0].Point)
	}
	if e[1].Point != 224 {
		t.Errorf("sum = %g", e[1].Point)
	}
	if math.Abs(e[2].Point-44.8) > 1e-9 {
		t.Errorf("avg = %g", e[2].Point)
	}
	if e[3].Point != 22 { // median of {15,20,22,82,85}
		t.Errorf("median = %g", e[3].Point)
	}
}

func TestCountColumnIgnoresNulls(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "x", Kind: types.KindFloat},
	)
	tab := storage.NewTable("t", schema)
	b := storage.NewBuilder(tab, 8, 1, storage.InMemory)
	b.AppendRow(types.Row{types.Float(1)})
	b.AppendRow(types.Row{types.Null()})
	b.AppendRow(types.Row{types.Float(3)})
	b.Finish()
	p := compile(t, `SELECT COUNT(x), COUNT(*), SUM(x), AVG(x) FROM t`, schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	e := res.Groups[0].Estimates
	if e[0].Point != 2 {
		t.Errorf("COUNT(x) = %g, want 2", e[0].Point)
	}
	if e[1].Point != 3 {
		t.Errorf("COUNT(*) = %g, want 3", e[1].Point)
	}
	if e[2].Point != 4 {
		t.Errorf("SUM(x) = %g", e[2].Point)
	}
	if e[3].Point != 2 {
		t.Errorf("AVG(x) = %g (NULLs must be excluded)", e[3].Point)
	}
}

func TestEmptyResultGlobalAggregate(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions WHERE city = 'Nowhere'`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	if len(res.Groups) != 1 || res.Groups[0].Estimates[0].Point != 0 {
		t.Errorf("empty global aggregate should yield a zero row: %+v", res.Groups)
	}
	// Grouped query with no matches yields no groups.
	p2 := compile(t, `SELECT COUNT(*) FROM sessions WHERE city = 'Nowhere' GROUP BY city`, tab.Schema)
	res2 := runOpt(p2, FromTable(tab), Options{Confidence: 0.95})
	if len(res2.Groups) != 0 {
		t.Errorf("grouped empty result should have no groups")
	}
}

func TestLimit(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions GROUP BY city LIMIT 2`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	if len(res.Groups) != 2 {
		t.Errorf("limit ignored: %d groups", len(res.Groups))
	}
}

func TestGroupOrderingDeterministic(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions GROUP BY city`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	want := []string{"Berkeley", "Cambridge", "New York"}
	for i, g := range res.Groups {
		if g.KeyString() != want[i] {
			t.Errorf("group %d = %s, want %s", i, g.KeyString(), want[i])
		}
	}
}

func TestMultiColumnGroupBy(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions GROUP BY city, browser`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Groups))
	}
	found := false
	for _, g := range res.Groups {
		if g.KeyString() == "New York/Firefox" && g.Estimates[0].Point == 2 {
			found = true
		}
	}
	if !found {
		t.Error("New York/Firefox = 2 not found")
	}
}

func TestCompileErrors(t *testing.T) {
	schema := sessionsSchema()
	bad := []string{
		`SELECT COUNT(*) FROM s WHERE bogus = 1`,
		`SELECT SUM(bogus) FROM s`,
		`SELECT COUNT(*) FROM s GROUP BY bogus`,
	}
	for _, src := range bad {
		q, err := sqlparser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(q, schema); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestRunOnStratifiedViewAccuracy(t *testing.T) {
	// Large skewed table; AVG via a stratified sample must approximate
	// the truth within its own error bound most of the time.
	schema := sessionsSchema()
	tab := storage.NewTable("big", schema)
	bld := storage.NewBuilder(tab, 512, 4, storage.OnDisk)
	rng := rand.New(rand.NewSource(21))
	cities := []string{"NY", "SF", "LA", "Austin", "Boise"}
	counts := []int{50000, 10000, 2000, 400, 80}
	truth := map[string]float64{}
	for ci, city := range cities {
		sum := 0.0
		for i := 0; i < counts[ci]; i++ {
			v := rng.ExpFloat64() * 50
			sum += v
			bld.AppendRow(types.Row{
				types.Str("u"), types.Str(city), types.Str("FF"), types.Float(v),
			})
		}
		truth[city] = sum / float64(counts[ci])
	}
	bld.Finish()

	fam, err := sample.Build(tab, types.NewColumnSet("city"), []int64{500}, sample.BuildConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := compile(t, `SELECT AVG(sessiontime) FROM big GROUP BY city`, schema)
	res := runOpt(p, FromView(fam.View(0)), Options{Confidence: 0.95})
	if len(res.Groups) != 5 {
		t.Fatalf("missing groups: %d", len(res.Groups))
	}
	for _, g := range res.Groups {
		e := g.Estimates[0]
		tr := truth[g.KeyString()]
		// 3σ margin: generous but catches systematic bias.
		margin := 3 * e.StdErr
		if e.Exact {
			margin = 1e-9
		}
		if math.Abs(e.Point-tr) > math.Max(margin, 1e-9) {
			t.Errorf("%s: est %.3f vs truth %.3f (stderr %.3f)", g.KeyString(), e.Point, tr, e.StdErr)
		}
	}
	// Small cities fit under cap 500 → exact.
	for _, g := range res.Groups {
		if g.KeyString() == "Boise" || g.KeyString() == "Austin" {
			if !g.Estimates[0].Exact {
				t.Errorf("%s should be exact under cap", g.KeyString())
			}
		}
	}
}

func TestResultHelpers(t *testing.T) {
	tab := paperTable(t)
	p := compile(t, `SELECT COUNT(*) FROM sessions GROUP BY city`, tab.Schema)
	res := runOpt(p, FromTable(tab), Options{Confidence: 0.95})
	if res.MaxRelErr() != 0 {
		t.Error("exact result has zero max rel err")
	}
	if res.MaxAbsErr() != 0 {
		t.Error("exact result has zero max abs err")
	}
	if res.MinGroupRows() != 1 {
		t.Errorf("min group rows = %d", res.MinGroupRows())
	}
	empty := &Result{}
	if empty.Selectivity() != 0 || empty.MinGroupRows() != 0 {
		t.Error("empty result helpers wrong")
	}
}

func TestMergeResultsDisjuncts(t *testing.T) {
	tab := paperTable(t)
	schema := tab.Schema
	q, err := sqlparser.Parse(`SELECT COUNT(*) FROM sessions WHERE city = 'New York' OR city = 'Berkeley' GROUP BY browser`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	disjuncts := types.SplitDisjuncts(p.Pred)
	if len(disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(disjuncts))
	}
	var parts []*Result
	for _, d := range disjuncts {
		parts = append(parts, runOpt(p.WithPred(d), FromTable(tab), Options{Confidence: 0.95}))
	}
	merged := MergeResults(p, parts)
	// Truth: Firefox appears 3 times in NY+Berkeley, Safari once.
	got := map[string]float64{}
	for _, g := range merged.Groups {
		got[g.KeyString()] = g.Estimates[0].Point
	}
	if got["Firefox"] != 3 || got["Safari"] != 1 {
		t.Errorf("merged = %v", got)
	}
	// Single-part merge returns the part itself.
	if MergeResults(p, parts[:1]) != parts[0] {
		t.Error("single-part merge should be identity")
	}
}

func TestMergeResultsAvg(t *testing.T) {
	tab := paperTable(t)
	q, _ := sqlparser.Parse(`SELECT AVG(sessiontime) FROM sessions WHERE city = 'New York' OR city = 'Cambridge'`)
	p, _ := Compile(q, tab.Schema)
	var parts []*Result
	for _, d := range types.SplitDisjuncts(p.Pred) {
		parts = append(parts, runOpt(p.WithPred(d), FromTable(tab), Options{Confidence: 0.95}))
	}
	merged := MergeResults(p, parts)
	// Weighted avg of NY (39, n=3) and Cambridge (22, n=1) = (117+22)/4.
	want := (117.0 + 22.0) / 4.0
	if got := merged.Groups[0].Estimates[0].Point; math.Abs(got-want) > 1e-9 {
		t.Errorf("merged avg = %g, want %g", got, want)
	}
}

func BenchmarkRunFiltered(b *testing.B) {
	schema := sessionsSchema()
	tab := storage.NewTable("bench", schema)
	bld := storage.NewBuilder(tab, 4096, 4, storage.InMemory)
	rng := rand.New(rand.NewSource(7))
	cities := []string{"NY", "SF", "LA"}
	for i := 0; i < 100000; i++ {
		bld.AppendRow(types.Row{
			types.Str("u"), types.Str(cities[rng.Intn(3)]), types.Str("FF"),
			types.Float(rng.Float64() * 100),
		})
	}
	bld.Finish()
	p := compile(b, `SELECT AVG(sessiontime) FROM bench WHERE city = 'NY' GROUP BY city`, schema)
	in := FromTable(tab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOpt(p, in, Options{Confidence: 0.95})
	}
}
