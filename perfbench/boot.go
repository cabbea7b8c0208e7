package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"blinkdb"
	"blinkdb/internal/admission"
	"blinkdb/internal/server"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
	conviva "blinkdb/internal/workload"
)

// cmd/blinkdb-server's shipped defaults (its flag defaults and the
// engine, sample and admission settings it derives from them). Every run
// serves with these and records them.
const (
	defaultRows       = 100000
	defaultScale      = 1e4
	defaultEngineSeed = 42
	defaultBudget     = 0.5
	defaultK          = 2000
	defaultMaxConc    = 1
	defaultMaxQueue   = 16
	defaultMaxBacklog = 30.0
)

func engineConfig(dir string) blinkdb.Config {
	return blinkdb.Config{Scale: defaultScale, Seed: defaultEngineSeed, CacheTables: true, DataDir: dir}
}

func serverConfig() server.Config {
	return server.Config{Admission: admission.Config{
		MaxConcurrent:     defaultMaxConc,
		MaxQueue:          defaultMaxQueue,
		MaxBacklogSeconds: defaultMaxBacklog,
	}}
}

// dataset is the generated sessions table, held in typed columns: it has
// no boxed values, so while a boot loads it the collector has next to
// nothing of the benchmark's to scan, and each Append boxes its one row,
// as any caller of the Loader does. Generating it is never timed; loading
// it through the Loader is.
type dataset struct {
	cols      []blinkdb.ColumnDef
	data      []column
	rows      int
	templates []blinkdb.Template
}

// column holds one column's values unboxed: ints and floats as
// themselves, strings as codes into a dictionary.
type column struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	codes  []uint32
	dict   []string
}

// value returns row i's value in the form Loader.Append takes.
func (c *column) value(i int) any {
	switch c.kind {
	case types.KindInt:
		return c.ints[i]
	case types.KindFloat:
		return c.floats[i]
	default:
		return c.dict[c.codes[i]]
	}
}

// genData generates the Conviva sessions table from the workload seed.
func genData(seed int64, rows int) *dataset {
	ds := conviva.Conviva(conviva.ConvivaConfig{Rows: rows, Seed: seed})
	d := &dataset{}
	codes := make([]map[string]uint32, len(ds.Table.Schema.Columns))
	for i, c := range ds.Table.Schema.Columns {
		ct := blinkdb.String
		switch c.Kind {
		case types.KindInt:
			ct = blinkdb.Int
		case types.KindFloat:
			ct = blinkdb.Float
		}
		d.cols = append(d.cols, blinkdb.Col(c.Name, ct))
		d.data = append(d.data, column{kind: c.Kind})
		codes[i] = map[string]uint32{}
	}
	ds.Table.Scan(func(r types.Row, _ storage.RowMeta) bool {
		for i, v := range r {
			c := &d.data[i]
			if v.Kind != c.kind {
				// The Conviva generator fills every cell with its
				// column's kind; a column of mixed kinds has no
				// typed form here.
				panic(fmt.Sprintf("generated column %s holds a %v value", d.cols[i].Name, v.Kind))
			}
			switch c.kind {
			case types.KindInt:
				c.ints = append(c.ints, v.I)
			case types.KindFloat:
				c.floats = append(c.floats, v.F)
			default:
				code, ok := codes[i][v.S]
				if !ok {
					code = uint32(len(c.dict))
					codes[i][v.S] = code
					c.dict = append(c.dict, v.S)
				}
				c.codes = append(c.codes, code)
			}
		}
		d.rows++
		return true
	})
	for _, t := range ds.Templates {
		d.templates = append(d.templates, blinkdb.Template{Columns: t.Columns.Columns(), Weight: t.Weight})
	}
	return d
}

// bootTimes splits one boot into the layer calls the benchmark timed.
type bootTimes struct {
	Load    float64 `json:"load_s"`    // Loader appends + Close
	Samples float64 `json:"samples_s"` // CreateSamples (cold build + persist, or warm segment load)
	Restore float64 `json:"restore_s"` // RestoreWarmup (warm boots only)
	Ready   float64 `json:"ready_s"`   // server up until /healthz answers 200
	First   float64 `json:"first_s"`   // first answer over HTTP (warm boots only)
	Total   float64 `json:"total_s"`
}

// instance is an engine behind a live loopback HTTP server.
type instance struct {
	eng    *blinkdb.Engine
	srv    *server.Server
	ln     *countingListener
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	url    string
	rep    *blinkdb.SampleReport
}

// boot opens an engine, loads d through the Loader, builds (or, with warm
// set, loads persisted) samples, restores warmup state when warm, and
// brings the server up on a loopback port. With first non-nil it also
// times the first answer to that request.
func boot(d *dataset, dir string, warm bool, first *request) (*instance, bootTimes, error) {
	var bt bootTimes
	runtime.GC() // earlier phases' garbage is not this boot's cost
	start := time.Now()
	eng := blinkdb.Open(engineConfig(dir))
	in := &instance{eng: eng}
	ld := eng.CreateTable("sessions", d.cols...)
	row := make([]any, len(d.data)) // Append copies the values out
	for i := 0; i < d.rows; i++ {
		for j := range d.data {
			row[j] = d.data[j].value(i)
		}
		if err := ld.Append(row...); err != nil {
			eng.Close()
			return nil, bt, fmt.Errorf("load: %w", err)
		}
	}
	if err := ld.Close(); err != nil {
		eng.Close()
		return nil, bt, fmt.Errorf("load: %w", err)
	}
	t := time.Now()
	bt.Load = t.Sub(start).Seconds()
	rep, err := eng.CreateSamples("sessions", blinkdb.SampleOptions{
		BudgetFraction: defaultBudget, K: defaultK, Templates: d.templates,
	})
	if err != nil {
		eng.Close()
		return nil, bt, fmt.Errorf("create samples: %w", err)
	}
	in.rep = rep
	bt.Samples = time.Since(t).Seconds()
	in.srv = server.New(eng, serverConfig())
	if warm {
		t = time.Now()
		rr, err := eng.RestoreWarmup()
		if err != nil {
			eng.Close()
			return nil, bt, fmt.Errorf("restore warmup: %w", err)
		}
		if rr != nil {
			in.srv.ImportAdmissionEWMA(rr.Warmup.AdmissionEWMA)
		}
		bt.Restore = time.Since(t).Seconds()
	}
	t = time.Now()
	if err := in.listen(); err != nil {
		eng.Close()
		return nil, bt, err
	}
	if err := in.awaitReady(); err != nil {
		in.stop()
		return nil, bt, err
	}
	bt.Ready = time.Since(t).Seconds()
	if first != nil {
		t = time.Now()
		c := newClient(in.url, 1)
		o := c.do(context.Background(), *first, time.Now())
		c.close()
		if o.verdict != served {
			in.stop()
			return nil, bt, fmt.Errorf("first answer after boot: %s", o.detail)
		}
		bt.First = time.Since(t).Seconds()
	}
	bt.Total = time.Since(start).Seconds()
	return in, bt, nil
}

func (in *instance) listen() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	in.ln = &countingListener{Listener: l}
	in.url = "http://" + l.Addr().String()
	in.hs = &http.Server{Handler: in.srv}
	in.served = make(chan struct{})
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(in.ln) // returns ErrServerClosed after stop
	}()
	return nil
}

// awaitReady polls /healthz on a throwaway connection until it reports ok.
func (in *instance) awaitReady() error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(in.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server never became ready")
}

// stop shuts the server down, waits for its serve loop to exit, and
// closes the engine.
func (in *instance) stop() {
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = in.hs.Shutdown(ctx) // on timeout Close below still ends the loop
		cancel()
		_ = in.hs.Close()
		<-in.served
	}
	_ = in.eng.Close()
}

// countingListener counts accepted connections and the peak number open
// at once, so every run can prove the driver's connection bound.
type countingListener struct {
	net.Listener
	mu                     sync.Mutex
	active, peak, accepted int
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.active++
	l.accepted++
	l.peak = max(l.peak, l.active)
	l.mu.Unlock()
	return &countedConn{Conn: c, l: l}, nil
}

// resetPeak starts a new peak window at the current open count.
func (l *countingListener) resetPeak() {
	l.mu.Lock()
	l.peak = l.active
	l.mu.Unlock()
}

func (l *countingListener) stats() (peak, accepted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak, l.accepted
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		c.l.mu.Lock()
		c.l.active--
		c.l.mu.Unlock()
	})
	return c.Conn.Close()
}
