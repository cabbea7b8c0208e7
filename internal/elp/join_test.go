package elp

import (
	"context"
	"math"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// joinFixture extends the standard fixture with a dimension table mapping
// OS → vendor, registered in the same catalog.
func joinFixture(t *testing.T, rows int, opt Options) *fixture {
	t.Helper()
	f := newFixture(t, rows, opt)
	schema := types.NewSchema(
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "vendor", Kind: types.KindString},
	)
	dim := storage.NewTable("vendors", schema)
	b := storage.NewBuilder(dim, 8, 1, storage.InMemory)
	for _, r := range [][2]string{
		{"Win7", "Microsoft"}, {"OSX", "Apple"}, {"Linux", "Community"}, {"iOS", "Apple"},
	} {
		b.AppendRow(types.Row{types.Str(r[0]), types.Str(r[1])})
	}
	b.Finish()
	f.cat.Register(dim)
	return f
}

func TestJoinUnboundedExact(t *testing.T) {
	f := joinFixture(t, 20000, Options{})
	resp, err := f.rt.Run(context.Background(), parse(t,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple'`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decisions[0].UsedBase {
		t.Error("unbounded join should be exact")
	}
	// Apple = OSX + iOS rows; cross-check against two exact counts.
	osx, _ := f.rt.Run(context.Background(), parse(t, `SELECT COUNT(*) FROM sessions WHERE os = 'OSX'`), nil, nil)
	ios, _ := f.rt.Run(context.Background(), parse(t, `SELECT COUNT(*) FROM sessions WHERE os = 'iOS'`), nil, nil)
	want := osx.Result.Groups[0].Estimates[0].Point + ios.Result.Groups[0].Estimates[0].Point
	if got := resp.Result.Groups[0].Estimates[0].Point; got != want {
		t.Errorf("join count = %g, want %g", got, want)
	}
}

func TestJoinBoundedUsesSample(t *testing.T) {
	// Scale matters: latency advantages only appear when the base table
	// is logically large.
	f := joinFixture(t, 40000, Options{Scale: 2e4})
	resp, err := f.rt.Run(context.Background(), parse(t,
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' ERROR WITHIN 10%`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if d.UsedBase {
		t.Fatal("bounded join should use a sample")
	}
	// §2.1 case (i): the [os,url] family contains the join key os.
	exact, err := f.rt.Run(context.Background(), parse(t,
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple'`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Result.Groups[0].Estimates[0]
	want := exact.Result.Groups[0].Estimates[0].Point
	if math.Abs(got.Point-want)/want > 0.12 {
		t.Errorf("join estimate %.2f vs truth %.2f", got.Point, want)
	}
	if resp.SimLatency >= exact.SimLatency {
		t.Errorf("bounded join (%gs) should beat exact (%gs)", resp.SimLatency, exact.SimLatency)
	}
}

func TestJoinGroupByDimensionColumn(t *testing.T) {
	f := joinFixture(t, 30000, Options{})
	resp, err := f.rt.Run(context.Background(), parse(t,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor ERROR WITHIN 15%`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Groups) != 3 {
		t.Fatalf("vendors = %d, want 3 (Apple, Community, Microsoft)", len(resp.Result.Groups))
	}
	exact, _ := f.rt.Run(context.Background(), parse(t,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor`), nil, nil)
	for i, g := range resp.Result.Groups {
		want := exact.Result.Groups[i].Estimates[0].Point
		got := g.Estimates[0].Point
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("%s: %g vs %g", g.KeyString(), got, want)
		}
	}
}

func TestJoinAdmissibilityRejected(t *testing.T) {
	// A dimension too big for cluster memory, joined on a key with no
	// stratified sample, must be rejected (§2.1).
	f := newFixture(t, 5000, Options{Scale: 1e9}) // huge scale: nothing "fits"
	schema := types.NewSchema(
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "label", Kind: types.KindString},
	)
	dim := storage.NewTable("genres", schema)
	b := storage.NewBuilder(dim, 8, 1, storage.OnDisk)
	for i := 0; i < 20000; i++ {
		b.AppendRow(types.Row{types.Str("g"), types.Str("x")})
	}
	b.Finish()
	f.cat.Register(dim)
	// genre is in no stratified family ([city], [os,url]).
	_, err := f.rt.Run(context.Background(), parse(t,
		`SELECT COUNT(*) FROM sessions JOIN genres ON genre = genre ERROR WITHIN 10%`), nil, nil)
	if err == nil {
		t.Fatal("join without key sample or in-memory dim should be rejected")
	}
}

func TestJoinUnknownDimTable(t *testing.T) {
	f := newFixture(t, 1000, Options{})
	if _, err := f.rt.Run(context.Background(), parse(t,
		`SELECT COUNT(*) FROM sessions JOIN missing ON os = os ERROR WITHIN 10%`), nil, nil); err == nil {
		t.Error("unknown dimension table should error")
	}
}
