package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// reorderByNode rebuilds a table's block list grouped by node — a skewed,
// non-round-robin placement that makes node shards span multiple
// contiguous ranges (the interesting case for the affine scheduler).
func reorderByNode(t testing.TB, tab *storage.Table) *storage.Table {
	t.Helper()
	out := storage.NewTable(tab.Name, tab.Schema)
	maxNode := 0
	for _, b := range tab.Blocks {
		if b.Node > maxNode {
			maxNode = b.Node
		}
	}
	for n := 0; n <= maxNode; n++ {
		for _, b := range tab.Blocks {
			if b.Node == n {
				cp := *b
				out.AddBlock(&cp)
			}
		}
	}
	return out
}

// TestAffinityEquivalence is the shard-affine scheduler's acceptance
// check: worker counts 2 and 8 (and more workers than shards, which falls
// back to per-range claiming) return bit-identical Results to Workers: 1,
// across query shapes, block layouts and placements.
func TestAffinityEquivalence(t *testing.T) {
	for _, rowsPerBlock := range []int{64, 509} {
		base := randomWeightedTable(t, 4, 6000, rowsPerBlock)
		for _, tab := range []*storage.Table{base, reorderByNode(t, base), columnarClone(t, base, rowsPerBlock, 4)} {
			for _, src := range equivalenceQueries {
				p := compile(t, src, tab.Schema)
				in := FromTable(tab)
				want := runOpt(p, in, Options{Confidence: 0.95, Workers: 1})
				for _, w := range []int{2, 8, 1 << 10} {
					got := runOpt(p, in, Options{Confidence: 0.95, Workers: w})
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("rpb=%d workers=%d query=%q: result diverged from workers=1\nwant %+v\ngot  %+v",
							rowsPerBlock, w, src, want, got)
					}
				}
			}
		}
	}
}

// TestAffinityJoinEquivalence covers the join path: every worker count
// agrees bit-for-bit with Workers: 1 while dimension rows are hash-joined
// in.
func TestAffinityJoinEquivalence(t *testing.T) {
	fact := randomWeightedTable(t, 11, 4000, 97)
	dimSchema := types.NewSchema(
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "region", Kind: types.KindString},
	)
	dim := storage.NewTable("regions", dimSchema)
	db := storage.NewBuilder(dim, 16, 2, storage.InMemory)
	for _, c := range []struct{ city, region string }{
		{"NY", "east"}, {"SF", "west"}, {"LA", "west"}, {"Austin", "south"},
	} {
		db.AppendRow(types.Row{types.Str(c.city), types.Str(c.region)})
	}
	db.Finish()

	combined, _, err := JoinedSchema(fact.Schema, []*storage.Table{dim})
	if err != nil {
		t.Fatal(err)
	}
	ci := fact.Schema.Index("city")
	ri := dim.Schema.Index("city")
	spec := JoinSpec{Dim: dim, LeftCol: ci, RightCol: ri}
	p := compile(t, `SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE code < 700 GROUP BY region`, combined)
	in := FromTable(fact)

	want := runOpt(p, in, Options{Confidence: 0.95, Workers: 1, Joins: []JoinSpec{spec}})
	for _, w := range []int{2, 8} {
		got := runOpt(p, in, Options{Confidence: 0.95, Workers: w, Joins: []JoinSpec{spec}})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: join result diverged from workers=1", w)
		}
	}
}

// TestScanShardsMatchesPartition pins that the schedule ScanShards
// reports (used by ELP's latency attribution) is the executor's own
// partition.
func TestScanShardsMatchesPartition(t *testing.T) {
	tab := randomWeightedTable(t, 4, 6000, 64)
	ranges, shards := ScanShards(tab.Blocks)
	wantRanges := storage.PartitionBlocks(len(tab.Blocks), maxPartials)
	if !reflect.DeepEqual(ranges, wantRanges) {
		t.Fatal("ScanShards ranges differ from the executor partition")
	}
	covered := 0
	for _, s := range shards {
		covered += len(s.Ranges)
	}
	if covered != len(ranges) {
		t.Fatalf("shards cover %d of %d ranges", covered, len(ranges))
	}
}

// randomPlacementTable builds a columnar table with blocks assigned to
// random nodes — worst-case shard imbalance for the affine pool.
func randomPlacementTable(t testing.TB, seed int64, rows int) *storage.Table {
	t.Helper()
	tab := randomWeightedTable(t, seed, rows, 64)
	rng := rand.New(rand.NewSource(seed))
	for _, b := range tab.Blocks {
		b.Node = rng.Intn(5)
	}
	return tab
}

// TestAffinityRandomPlacement: equivalence must hold for arbitrary
// (non-round-robin) node assignments too. With 5 nodes, 8 workers
// outnumber the shards and take the per-range fallback.
func TestAffinityRandomPlacement(t *testing.T) {
	tab := randomPlacementTable(t, 21, 5000)
	p := compile(t, `SELECT SUM(sessiontime), MEDIAN(sessiontime) FROM sessions WHERE code < 800 GROUP BY city`, tab.Schema)
	in := FromBlocks(tab.Schema, tab.Blocks, 400)
	want := runOpt(p, in, Options{Confidence: 0.95, Workers: 1})
	for _, w := range []int{2, 3, 8} {
		if got := runOpt(p, in, Options{Confidence: 0.95, Workers: w}); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: result diverged under random placement", w)
		}
	}
}
