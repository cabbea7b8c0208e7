package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blinkdb/internal/loadgen"
)

// Verdicts reuse loadgen's outcome classes.
const (
	served      = loadgen.Served
	shed        = loadgen.Shed
	unavailable = loadgen.Unavailable
	errored     = loadgen.Errored
)

// outcome is one request's result as the driver saw it.
type outcome struct {
	verdict loadgen.Verdict
	status  int           // HTTP status; 0 when no response arrived
	detail  string        // why a non-served request failed
	sent    time.Duration // send time minus due time (driver lateness)
	ttfa    time.Duration // due time to first frame
	latency time.Duration // due time to final frame
	frames  int
	final   *wireFrame
}

// wireFrame is the server's frame shape (internal/server), decoded.
type wireFrame struct {
	Seq    int         `json:"seq"`
	Final  bool        `json:"final"`
	Error  string      `json:"error"`
	Result *wireResult `json:"result"`
}

type wireResult struct {
	Rows              []wireRow `json:"rows"`
	SimLatencySeconds float64   `json:"sim_latency_seconds"`
	ResultCache       string    `json:"result_cache"`
	RowsScanned       int64     `json:"rows_scanned"`
	RowsMatched       int64     `json:"rows_matched"`
}

type wireRow struct {
	Group string     `json:"group"`
	Cells []wireCell `json:"cells"`
}

type wireCell struct {
	Value  float64 `json:"value"`
	Bound  float64 `json:"bound"`
	RelErr float64 `json:"rel_err"`
	Exact  bool    `json:"exact"`
}

// client issues /query requests over at most conns persistent
// connections.
type client struct {
	hc   *http.Client
	base string
	// results, when set, holds one decoded copy of each distinct final
	// result, which every outcome with that result shares.
	results *resultSet
}

// resultSet interns final results by their encoded bytes. The outcomes a
// run keeps for scoring then hold each distinct answer once instead of
// once per request, so the live heap, and the collector's work on it,
// stay the program's rather than growing with every request the driver
// has sent.
type resultSet struct {
	mu   sync.Mutex
	byID map[string]*wireResult
}

func newResultSet() *resultSet { return &resultSet{byID: map[string]*wireResult{}} }

// resultKey is the encoded result part of a final frame: everything from
// its "result" field on, which leaves out per-request fields such as the
// elapsed time that precede it.
var resultKey = []byte(`"result":`)

// intern returns the shared copy of r, whose frame was line.
func (s *resultSet) intern(line []byte, r *wireResult) *wireResult {
	i := bytes.Index(line, resultKey)
	if s == nil || i < 0 {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.byID[string(line[i:])]; ok {
		return have
	}
	s.byID[string(line[i:])] = r
	return r
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// queryBody is the /query payload; bounds go as parameters.
type queryBody struct {
	SQL         string  `json:"sql"`
	Stream      bool    `json:"stream,omitempty"`
	Error       string  `json:"error,omitempty"`
	TimeSeconds float64 `json:"time_seconds,omitempty"`
}

func newHTTPRequest(ctx context.Context, base string, r request) (*http.Request, error) {
	b := queryBody{SQL: r.SQL, Stream: r.Stream, TimeSeconds: r.TimeSec}
	if r.ErrorPct > 0 {
		b.Error = fmt.Sprintf("%g%%", r.ErrorPct)
	}
	body, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// do sends r and classifies the response; times are measured from due.
func (c *client) do(ctx context.Context, r request, due time.Time) outcome {
	o := outcome{sent: time.Since(due)}
	req, err := newHTTPRequest(ctx, c.base, r)
	if err != nil {
		return failed(o, errored, err.Error())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return failed(o, errored, "transport: "+err.Error())
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		_, _ = io.Copy(io.Discard, resp.Body)
		return failed(o, shed, "429")
	case http.StatusServiceUnavailable:
		_, _ = io.Copy(io.Discard, resp.Body)
		return failed(o, unavailable, "503")
	default:
		msg, _ := io.ReadAll(resp.Body)
		return failed(o, errored, fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	return readFrames(o, resp.Body, r.Stream, due, c.results)
}

func failed(o outcome, v loadgen.Verdict, detail string) outcome {
	o.verdict, o.detail = v, detail
	return o
}

// readFrames reads the response's frames (one JSON line per frame) and
// checks the stream is well formed: frames numbered from 0, exactly one
// final frame and it is the last, no in-band error, a result present,
// and a single frame when the request did not stream.
func readFrames(o outcome, body io.Reader, stream bool, due time.Time, results *resultSet) outcome {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if o.frames == 0 {
			o.ttfa = time.Since(due)
		}
		var f wireFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return failed(o, errored, "malformed frame: "+err.Error())
		}
		switch {
		case o.final != nil:
			return failed(o, errored, "frame after the final frame")
		case f.Seq != o.frames:
			return failed(o, errored, fmt.Sprintf("frame seq %d, want %d", f.Seq, o.frames))
		case f.Error != "":
			return failed(o, errored, "in-band error: "+f.Error)
		case f.Result == nil:
			return failed(o, errored, "frame without result")
		}
		o.frames++
		if f.Final {
			f.Result = results.intern(sc.Bytes(), f.Result)
			o.final = &f
		}
	}
	o.latency = time.Since(due)
	switch {
	case sc.Err() != nil:
		return failed(o, errored, "read: "+sc.Err().Error())
	case o.final == nil:
		return failed(o, errored, "no final frame")
	case !stream && o.frames != 1:
		return failed(o, errored, fmt.Sprintf("%d frames for a single answer", o.frames))
	}
	o.verdict = served
	return o
}

// openLoop sends reqs at start+Due from exactly `workers` goroutines over
// c, each taking the next request in schedule order and sleeping until it
// is due. A request due while every worker is busy is sent late; its
// latency still counts from the due time, so stalls are charged to the
// requests they delay.
func openLoop(c *client, reqs []request, start time.Time, workers int) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				outs[i] = c.do(context.Background(), reqs[i], due)
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop runs `workers` clients that each send their next request as
// soon as the previous one completes, cycling through reqs, until dur has
// passed. It returns every outcome and the completion offsets of the
// requests served within dur.
func closedLoop(c *client, reqs []request, dur time.Duration, workers int) ([]outcome, []time.Duration) {
	begin := time.Now()
	var mu sync.Mutex
	var outs []outcome
	var done []time.Duration
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			var at []time.Duration
			for time.Since(begin) < dur {
				r := reqs[int(next.Add(1)-1)%len(reqs)]
				o := c.do(context.Background(), r, time.Now())
				o.final = nil // only the verdict is kept: the heap stays the program's
				mine = append(mine, o)
				if t := time.Since(begin); o.verdict == served && t < dur {
					at = append(at, t)
				}
			}
			mu.Lock()
			outs = append(outs, mine...)
			done = append(done, at...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs, done
}

// sliceRates splits [0, dur) into slices of width w and returns the
// completions per second in each.
func sliceRates(done []time.Duration, dur, w time.Duration) []float64 {
	rates := make([]float64, int(dur/w))
	for _, t := range done {
		if i := int(t / w); i < len(rates) {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= w.Seconds()
	}
	return rates
}
