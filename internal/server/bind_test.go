package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"blinkdb/internal/sqlparser"
)

// spliceBounds is the text form of request binding: append the bound
// clauses to the SQL and parse the result. The benchmark's ground truth
// builds this text, so it is the reference bindBounds must reproduce.
func spliceBounds(req *queryRequest) (*sqlparser.Query, error) {
	sql := strings.TrimRight(strings.TrimSpace(req.SQL), ";")
	if req.Error != "" {
		bound, pct, err := parseBoundNumber(req.Error)
		if err != nil {
			return nil, err
		}
		if pct {
			sql += fmt.Sprintf(" ERROR WITHIN %g%%", bound)
		} else {
			sql += fmt.Sprintf(" ERROR WITHIN %g", bound)
		}
		if req.Confidence != "" {
			conf, _, err := parseBoundNumber(req.Confidence)
			if err != nil {
				return nil, err
			}
			sql += fmt.Sprintf(" AT CONFIDENCE %g%%", normalizeConfidencePct(conf))
		}
	}
	if req.TimeSeconds != 0 {
		sql += fmt.Sprintf(" WITHIN %g SECONDS", req.TimeSeconds)
	}
	return sqlparser.Parse(sql)
}

// TestBindBoundsMatchesTextSplice: binding request bounds on the parsed
// query gives exactly the query that parsing the spliced text gives, and
// the same admission key.
func TestBindBoundsMatchesTextSplice(t *testing.T) {
	const base = `SELECT AVG(sessiontime) FROM sessions WHERE city = 'NY' GROUP BY os`
	cases := []queryRequest{
		{SQL: base},
		{SQL: base, Error: "10%"},
		{SQL: base, Error: "2.5%"},
		{SQL: base, Error: "0.5"},
		{SQL: base, Error: "120"},
		{SQL: base, Error: "5%", Confidence: "0.95"},
		{SQL: base, Error: "5%", Confidence: "95"},
		{SQL: base, Error: "5%", Confidence: "95%"},
		{SQL: base, Error: "0.5", Confidence: "0.9"},
		{SQL: base, TimeSeconds: 2},
		{SQL: base, Error: "7%", TimeSeconds: 0.25},
		{SQL: base + " LIMIT 3", Error: "5%", TimeSeconds: 1},
		{SQL: base + ";", Error: "5%"},
		{SQL: base + " ; ", Error: "5%", Confidence: "99%"},
		{SQL: "EXPLAIN ANALYZE " + base, Error: "10%"},
		{SQL: base + " WITHIN 3 SECONDS", Error: "5%"},
		{SQL: base + " ERROR WITHIN 4% LIMIT 2", TimeSeconds: 2},
		{SQL: `SELECT COUNT(*), RELATIVE ERROR AT 90% CONFIDENCE FROM sessions LIMIT 2;`, Error: "3%", Confidence: "99"},
	}
	srv := &Server{}
	for _, req := range cases {
		want, err := spliceBounds(&req)
		if err != nil {
			t.Fatalf("%+v: splice: %v", req, err)
		}
		got, key, err := srv.bindBounds(&req)
		if err != nil {
			t.Fatalf("%+v: bind: %v", req, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: AST binding diverges from the spliced text\n got %s\nwant %s", req, got, want)
		}
		if wantKey, _ := sqlparser.Normalize(want); key != wantKey {
			t.Errorf("%+v: admission key %q, want %q", req, key, wantKey)
		}
	}
}
