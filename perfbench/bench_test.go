package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"blinkdb/internal/storage"
	"blinkdb/internal/telemetry"
	"blinkdb/internal/types"
	conviva "blinkdb/internal/workload"
)

// frameServer answers every /query with one well-formed final frame after
// a short delay, behind a counting listener.
func frameServer(t *testing.T) (*countingListener, string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: l}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		fmt.Fprintln(w, `{"seq":0,"level":0,"final":true,"result":{"rows":[]}}`)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(cl)
	}()
	return cl, "http://" + l.Addr().String(), func() {
		_ = hs.Close()
		<-done
	}
}

func TestDriverNeverExceedsConnectionBound(t *testing.T) {
	conns := runtime.NumCPU()
	cl, url, stop := frameServer(t)
	defer stop()
	// Every request is due at once: an unbounded driver would open one
	// connection per request.
	reqs := make([]request, 30*conns)
	for i := range reqs {
		reqs[i] = request{SQL: "SELECT COUNT(*) FROM sessions"}
	}
	c := newClient(url, conns)
	outs := openLoop(c, reqs, time.Now(), conns)
	closed, done := closedLoop(c, reqs, 100*time.Millisecond, conns)
	c.close()
	for i, o := range append(outs, closed...) {
		if o.verdict != served {
			t.Fatalf("request %d: %v %s", i, o.verdict, o.detail)
		}
	}
	if len(done) == 0 {
		t.Fatal("closed loop served nothing")
	}
	if peak, _ := cl.stats(); peak > conns {
		t.Fatalf("driver held %d connections at once, bound is %d", peak, conns)
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.schedule(7, 3*time.Second, w.rate)
		b := w.schedule(7, 3*time.Second, w.rate)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different request sequences (%d vs %d requests)", w.name, len(a), len(b))
		}
		if c := w.schedule(8, 3*time.Second, w.rate); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", w.name)
		}
	}
}

func TestRoundsDrawTheirOwnSchedules(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]int{}
		for r := 0; r < rounds; r++ {
			open, closed := roundSeeds(7, r)
			for _, seed := range []int64{open, closed} {
				a := w.schedule(seed, time.Second, w.rate)
				key := fmt.Sprint(a)
				if prev, ok := seen[key]; ok {
					t.Errorf("%s: round %d repeats a schedule of round %d", w.name, r, prev)
				}
				seen[key] = r
			}
		}
	}
	if open, _ := roundSeeds(7, 0); open != 7 {
		t.Errorf("round 0 opens with seed %d, want the run seed 7", open)
	}
}

func TestTailQuantileLeavesTenBeyondEverySubwindow(t *testing.T) {
	for _, n := range []int{50, 100, 999, 1000, 5432} {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64((i * 7919) % n) // a fixed shuffle of 0..n-1
		}
		for _, q := range []float64{0.9, 0.99} {
			_, windows := tailQuantile(lat, q)
			size := n / len(windows)
			if len(windows) > 1 && beyond(size, q) < 10 {
				t.Errorf("n=%d q=%g: %d sub-windows of %d leave %d samples beyond", n, q, len(windows), size, beyond(size, q))
			}
			if bigger := len(windows) + 1; beyond(n/bigger, q) >= 10 {
				t.Errorf("n=%d q=%g: %d sub-windows would still leave 10 beyond, got %d", n, q, bigger, len(windows))
			}
		}
	}
}

func TestResultSetSharesIdenticalResults(t *testing.T) {
	rs := newResultSet()
	frame := func(elapsed, value string) ([]byte, *wireResult) {
		line := []byte(`{"seq":0,"level":0,"final":true,"elapsed_ms":` + elapsed +
			`,"result":{"rows":[{"group":"","cells":[{"value":` + value + `}]}]}}`)
		var f wireFrame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatal(err)
		}
		return line, f.Result
	}
	l1, r1 := frame("0.5", "3")
	l2, r2 := frame("0.9", "3") // same answer, another request's elapsed time
	l3, r3 := frame("0.5", "4")
	a, b, c := rs.intern(l1, r1), rs.intern(l2, r2), rs.intern(l3, r3)
	if a != b {
		t.Error("identical results were not shared")
	}
	if a == c || c.Rows[0].Cells[0].Value != 4 {
		t.Error("different results were shared")
	}
	var none *resultSet
	if none.intern(l2, r2) != r2 {
		t.Error("a nil set must return the result it was given")
	}
}

func TestDatasetHoldsTheGeneratedRows(t *testing.T) {
	const rows = 2000
	d := genData(3, rows)
	ds := conviva.Conviva(conviva.ConvivaConfig{Rows: rows, Seed: 3})
	i := 0
	ds.Table.Scan(func(r types.Row, _ storage.RowMeta) bool {
		for j, v := range r {
			var want any = v.S
			switch v.Kind {
			case types.KindInt:
				want = v.I
			case types.KindFloat:
				want = v.F
			}
			if got := d.data[j].value(i); got != want {
				t.Fatalf("row %d column %s: %v, generated %v", i, d.cols[j].Name, got, want)
			}
		}
		i++
		return true
	})
	if i != rows || d.rows != rows {
		t.Fatalf("dataset holds %d rows, generator %d, want %d", d.rows, i, rows)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", d.name)
		}
	}
	check := func(kind string, defs []metricDef, file []struct{ Name, Unit, Better string }) {
		if len(defs) != len(file) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(file))
			return
		}
		for i, d := range defs {
			if f := file[i]; f.Name != d.name || f.Unit != d.unit || (f.Better != "higher" && f.Better != "lower") {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s/%s", kind, i, d.name, d.unit, f.Name, f.Unit, f.Better)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	// BENCHMARK.json gates a subset of the workloads the code defines.
	for _, f := range bf.Workloads {
		if _, ok := workloadByName(f.Name); !ok || !name.MatchString(f.Name) {
			t.Errorf("BENCHMARK.json workload %q is not a valid workload of the benchmark", f.Name)
		}
	}
}

func TestAttributeAddsUpWithoutDoubleCounting(t *testing.T) {
	tr := telemetry.New("query")
	root := tr.Root()
	lookup := root.Child("result-cache lookup")
	time.Sleep(time.Millisecond)
	lookup.End()
	scan := root.Child("scan blocks=4")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // parallel shards overlap in time
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := scan.Child("shard node=0 ranges=1")
			time.Sleep(2 * time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	scan.End()
	merge := root.Child("merge")
	time.Sleep(time.Millisecond)
	merge.End()
	tr.Finish()

	acc := map[string]float64{}
	attribute(root, 1, acc)
	sum := 0.0
	for _, v := range acc {
		sum += v
	}
	if want := us(root.Duration()); sum < want*(1-1e-9) || sum > want*(1+1e-9) {
		t.Fatalf("layers add up to %.3fµs, root span is %.3fµs: %v", sum, want, acc)
	}
	// The four 2 ms shards ran side by side: the scan layer gets the wall
	// time they covered, not 8 ms.
	if acc["exec.scan"] > us(scan.Duration())*(1+1e-9) {
		t.Fatalf("exec.scan %.0fµs exceeds its span's %.0fµs", acc["exec.scan"], us(scan.Duration()))
	}
	for _, layer := range []string{"resultcache.lookup", "exec.scan", "exec.merge"} {
		if acc[layer] <= 0 {
			t.Errorf("layer %s got no time: %v", layer, acc)
		}
	}
}

func TestMeetsBoundGradesLikeLoadgen(t *testing.T) {
	res := &wireResult{SimLatencySeconds: 1.5, Rows: []wireRow{
		{Cells: []wireCell{{RelErr: 0.04}, {RelErr: -1}, {RelErr: 0.5, Exact: true}}},
	}}
	cases := []struct {
		r    request
		want bool
	}{
		{request{ErrorPct: 5}, true},
		{request{ErrorPct: 3}, false},
		{request{TimeSec: 2}, true},
		{request{TimeSec: 1}, false},
		{request{}, true},
	}
	for _, c := range cases {
		if got := meetsBound(c.r, res); got != c.want {
			t.Errorf("meetsBound(%+v) = %v, want %v", c.r, got, c.want)
		}
	}
}
