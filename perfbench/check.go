package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"segdb/internal/geom"
)

// loadCSV reads the generated segments (id,ax,ay,bx,by per line), the
// same file the index under test was built from.
func loadCSV(path string) ([]geom.Segment, bounds, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, bounds{}, err
	}
	defer f.Close()
	b := bounds{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)}
	var segs []geom.Segment
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.Split(strings.TrimSpace(sc.Text()), ",")
		if len(parts) != 5 {
			continue
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, b, fmt.Errorf("%s: %w", path, err)
		}
		var c [4]float64
		for i := range c {
			if c[i], err = strconv.ParseFloat(parts[i+1], 64); err != nil {
				return nil, b, fmt.Errorf("%s: %w", path, err)
			}
		}
		s := geom.Seg(id, c[0], c[1], c[2], c[3])
		segs = append(segs, s)
		b.XLo, b.XHi = math.Min(b.XLo, s.MinX()), math.Max(b.XHi, s.MaxX())
		b.YLo = math.Min(b.YLo, math.Min(s.A.Y, s.B.Y))
		b.YHi = math.Max(b.YHi, math.Max(s.A.Y, s.B.Y))
	}
	if err := sc.Err(); err != nil {
		return nil, b, fmt.Errorf("%s: %w", path, err)
	}
	if len(segs) == 0 {
		return nil, b, fmt.Errorf("%s: no segments", path)
	}
	return segs, b, nil
}

// oracle answers VS queries by brute force with the geom predicates —
// never through the index under test.
type oracle struct{ segs []geom.Segment }

func (o oracle) ids(q geom.VQuery) []uint64 {
	var out []uint64
	for _, s := range o.segs {
		if q.Hits(s) {
			out = append(out, s.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (o oracle) count(q geom.VQuery) int {
	n := 0
	for _, s := range o.segs {
		if q.Hits(s) {
			n++
		}
	}
	return n
}

// hitsResponse is the part of a /v1/query response the full-payload
// check decodes.
type hitsResponse struct {
	Results []struct {
		Count int `json:"count"`
		Hits  []struct {
			ID uint64 `json:"id"`
		} `json:"hits"`
	} `json:"results"`
}

// checkReads verifies the clients' sampled reads against the oracle and
// returns the number of queries checked and how many were wrong. Counts
// are compared for count-only workloads; for full-payload workloads the
// reported ID set must equal the brute-force one.
func checkReads(o oracle, checks []ReadCheck) (checked, wrong int, firstErr string) {
	note := func(msg string) {
		wrong++
		if firstErr == "" {
			firstErr = msg
		}
	}
	for _, rc := range checks {
		if rc.Body == nil {
			for i, q := range rc.Queries {
				checked++
				if want := o.count(q); rc.Counts[i] != want {
					note(fmt.Sprintf("%v: served %d answers, brute force %d", q, rc.Counts[i], want))
				}
			}
			continue
		}
		var resp hitsResponse
		if err := json.Unmarshal(rc.Body, &resp); err != nil || len(resp.Results) != len(rc.Queries) {
			checked += len(rc.Queries)
			note(fmt.Sprintf("undecodable batch response (%v)", err))
			continue
		}
		for i, q := range rc.Queries {
			checked++
			got := make([]uint64, 0, len(resp.Results[i].Hits))
			for _, h := range resp.Results[i].Hits {
				got = append(got, h.ID)
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !equalIDs(got, o.ids(q)) || resp.Results[i].Count != len(got) {
				note(fmt.Sprintf("%v: served %d hits, brute force %d", q, len(got), o.count(q)))
			}
		}
	}
	return checked, wrong, firstErr
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ledger is the acknowledged state the write lanes should leave behind:
// lane segments whose last acknowledged write was an insert are Present,
// those last deleted are Absent, and Unsure ones (a write that got no
// answer) may be either. NotFound counts acknowledged deletes of
// acknowledged inserts that the server did not find.
type ledger struct {
	Present, Absent, Unsure map[uint64]geom.Segment
	NotFound                int
}

// merge folds another client's ledger in; clients write disjoint IDs.
func (l *ledger) merge(o ledger) {
	for id, s := range o.Present {
		l.Present[id] = s
	}
	for id, s := range o.Absent {
		l.Absent[id] = s
	}
	for id, s := range o.Unsure {
		l.Unsure[id] = s
	}
	l.NotFound += o.NotFound
}

// expected is the acknowledged live set: the data plus present lanes.
func (l ledger) expected(data []geom.Segment) oracle {
	segs := append([]geom.Segment(nil), data...)
	for _, s := range l.Present {
		segs = append(segs, s)
	}
	return oracle{segs}
}

// laneProbe is a stabbing line through every lane segment: lanes span
// [xLo, xLo+w], so one query at their common x sees all of them.
func laneProbe(d bounds) geom.VQuery { return geom.VLine(d.XLo + (d.XHi-d.XLo)/20) }

// lostWrites queries the lane probe with full hits and counts
// acknowledged inserts missing plus acknowledged deletes still present.
func lostWrites(conn *httpConn, d bounds, l ledger) (int, error) {
	body := singleBody(nil, laneProbe(d), true)
	code, resp, err := conn.do("POST", "/v1/query", body, 0)
	if err != nil || code != 200 {
		return 0, fmt.Errorf("lane probe: status %d: %v", code, err)
	}
	var r struct {
		Hits []struct {
			ID uint64 `json:"id"`
		} `json:"hits"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return 0, fmt.Errorf("lane probe: %w", err)
	}
	seen := map[uint64]bool{}
	for _, h := range r.Hits {
		seen[h.ID] = true
	}
	lost := 0
	for id := range l.Present {
		if !seen[id] {
			lost++
		}
	}
	for id := range l.Absent {
		if seen[id] {
			lost++
		}
	}
	return lost + l.NotFound, nil
}

// checkState runs a seeded set of queries of every kind — lines and
// rays through the write lanes included — with full hits against the
// server at a quiescent point, comparing each ID set with brute force
// over the acknowledged state. Unsure lane segments may be reported or
// not.
func checkState(conn *httpConn, qs []geom.VQuery, want oracle, l ledger) (checked, wrong int, err error) {
	const per = 64
	for lo := 0; lo < len(qs); lo += per {
		part := qs[lo:min(lo+per, len(qs))]
		code, resp, derr := conn.do("POST", "/v1/query", batchBody(nil, part, true), 0)
		if derr != nil || code != 200 {
			return checked, wrong, fmt.Errorf("state check: status %d: %v", code, derr)
		}
		var r hitsResponse
		if err := json.Unmarshal(resp, &r); err != nil || len(r.Results) != len(part) {
			return checked, wrong, fmt.Errorf("state check: undecodable response (%v)", err)
		}
		for i, q := range part {
			checked++
			var got []uint64
			for _, h := range r.Results[i].Hits {
				if _, ok := l.Unsure[h.ID]; !ok {
					got = append(got, h.ID)
				}
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !equalIDs(got, want.ids(q)) {
				wrong++
			}
		}
	}
	return checked, wrong, nil
}
