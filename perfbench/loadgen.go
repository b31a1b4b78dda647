package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"segdb/internal/geom"
)

// The load generator runs as a child process of the benchmark (the same
// binary with -loadgen), so its CPU time is its own rusage in both the
// untraced run and the traced one, where the benchmark process hosts the
// server. It holds one keep-alive connection per client and no more
// clients than cores. The protocol over its stdin/stdout is gob: the
// parent sends a loadConfig, the child runs the warm-up and sends a
// loadMsg without a report, the parent reads its counters and sends
// true, and the child runs the timed phase and sends the final loadMsg.

// Request kinds and outcomes recorded per sample.
const (
	opRead = iota
	opInsert
	opDelete
)

const (
	outOK = iota
	outShed
	outFailed
)

// Sample is one request as the client saw it. Times are nanoseconds since
// the load generator's epoch.
type Sample struct {
	Start, Lat int64
	ReqID      int64
	Op         uint8
	Outcome    uint8
	Queries    int32 // VS queries answered: batch size, 1, or 0 for writes
	Answers    int32
}

// loadSpec is a workload's traffic.
type loadSpec struct {
	Clients   int
	Batch     int // queries per request; 0 sends the single form
	Hits      bool
	WriteFrac float64
}

// bounds is the data's bounding box; queries are drawn inside it and
// write lanes sit above it.
type bounds struct{ XLo, XHi, YLo, YHi float64 }

type loadConfig struct {
	Addr    string
	Seed    int64
	Spec    loadSpec
	Data    bounds
	Warmup  time.Duration
	Seconds int
}

// ReadCheck is one read kept for the oracle: its queries and either the
// counts answered or, for hit-returning workloads, the response body.
type ReadCheck struct {
	Queries []geom.VQuery
	Counts  []int
	Body    []byte
}

// loadMsg is what the load generator reports.
type loadMsg struct {
	Report *loadReport // nil: warm-up finished
}

type loadReport struct {
	EpochUnixNano int64
	Wall          time.Duration
	CPUNanos      int64 // the load generator's rusage over the timed phase
	Samples       []Sample
	Checks        []ReadCheck
	Ledger        ledger
	FirstErr      string
}

// Query mix shared by every workload: 70% segment, 20% ray (half up,
// half down), 10% stabbing line, x uniform over the data, segment
// queries 1/50 of the data's height — segload's mix.
const (
	lineFrac = 0.1
	rayFrac  = 0.2
)

func randQuery(rng *rand.Rand, b bounds) geom.VQuery {
	x := b.XLo + rng.Float64()*(b.XHi-b.XLo)
	r := rng.Float64()
	switch {
	case r < lineFrac:
		return geom.VLine(x)
	case r < lineFrac+rayFrac:
		y := b.YLo + rng.Float64()*(b.YHi-b.YLo)
		if rng.Intn(2) == 0 {
			return geom.VRayUp(x, y)
		}
		return geom.VRayDown(x, y)
	default:
		h := (b.YHi - b.YLo) / 50
		lo := b.YLo + rng.Float64()*(b.YHi-b.YLo-h)
		return geom.VSeg(x, lo, lo+h)
	}
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// appendQuery writes the wire form of q's fields (no braces): open sides
// are spelled by omission.
func appendQuery(b []byte, q geom.VQuery) []byte {
	b = append(b, `"x":`...)
	b = appendFloat(b, q.X)
	if !math.IsInf(q.YLo, 0) {
		b = append(b, `,"ylo":`...)
		b = appendFloat(b, q.YLo)
	}
	if !math.IsInf(q.YHi, 0) {
		b = append(b, `,"yhi":`...)
		b = appendFloat(b, q.YHi)
	}
	return b
}

func singleBody(b []byte, q geom.VQuery, hits bool) []byte {
	b = append(b[:0], '{')
	b = appendQuery(b, q)
	if !hits {
		b = append(b, `,"omit_hits":true`...)
	}
	return append(b, '}')
}

func batchBody(b []byte, qs []geom.VQuery, hits bool) []byte {
	b = append(b[:0], `{"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		b = appendQuery(b, q)
		b = append(b, '}')
	}
	b = append(b, ']')
	if !hits {
		b = append(b, `,"omit_hits":true`...)
	}
	return append(b, '}')
}

func updateBody(b []byte, s geom.Segment) []byte {
	b = append(b[:0], `{"id":`...)
	b = strconv.AppendUint(b, s.ID, 10)
	b = append(b, `,"ax":`...)
	b = appendFloat(b, s.A.X)
	b = append(b, `,"ay":`...)
	b = appendFloat(b, s.A.Y)
	b = append(b, `,"bx":`...)
	b = appendFloat(b, s.B.X)
	b = append(b, `,"by":`...)
	b = appendFloat(b, s.B.Y)
	return append(b, '}')
}

var countKey = []byte(`"count":`)

// counts appends every "count" value in a /v1/query response. The batch
// form's first count is the (zero) single-form field; hit objects carry
// no count key, so a byte scan is exact and keeps JSON decoding off the
// client's measured path.
func counts(dst []int, body []byte) ([]int, error) {
	for {
		i := bytes.Index(body, countKey)
		if i < 0 {
			return dst, nil
		}
		body = body[i+len(countKey):]
		j := 0
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		n, err := strconv.Atoi(string(body[:j]))
		if err != nil {
			return dst, fmt.Errorf("bad count in response: %w", err)
		}
		dst = append(dst, n)
		body = body[j:]
	}
}

// client is one closed-loop connection with its own request stream,
// write lanes and oracle sample.
type client struct {
	id     int
	conn   *httpConn
	rng    *rand.Rand // request stream
	srng   *rand.Rand // oracle sampling, apart so sampling never shifts the stream
	cfg    loadConfig
	lanes  *laneState
	keep   int // reservoir capacity
	seen   int // checkable reads offered to the reservoir
	checks []ReadCheck

	samples []Sample
	errMsg  string
	body    []byte
	qbuf    []geom.VQuery
	cnt     []int
}

// laneState is a client's write lanes: horizontal segments strictly above
// the data's bounding box, each on its own y, so inserts stay
// non-crossing (the paper's NCT precondition) against the data and
// every other client by construction — segload's construction.
type laneState struct {
	owned []geom.Segment
	next  uint64
	l     ledger
}

// newLaneSegment mints the client's next lane segment. Every lane spans
// the data's first tenth in x, which laneProbe relies on.
func (c *client) newLaneSegment() geom.Segment {
	c.lanes.next++
	d := c.cfg.Data
	y := d.YHi + (d.YHi - d.YLo) + 1 + float64(c.id)*1e6 + float64(c.lanes.next)*1e-3
	w := (d.XHi-d.XLo)/10 + 1
	return geom.Seg(uint64(c.id+1)<<32|c.lanes.next, d.XLo, y, d.XLo+w, y)
}

// runPhase drives every client closed-loop until the deadline; with
// record set the samples are kept. Writes update the lane ledgers and
// checkable reads feed the oracle sample in every phase.
func runPhase(clients []*client, epoch time.Time, d time.Duration, record bool, nextReq *atomic.Int64) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := c.one(epoch, nextReq.Add(1))
				if record {
					c.samples = append(c.samples, s)
				}
			}
		}(c)
	}
	wg.Wait()
}

// one issues the client's next request.
func (c *client) one(epoch time.Time, reqID int64) Sample {
	spec := c.cfg.Spec
	if spec.WriteFrac > 0 && c.rng.Float64() < spec.WriteFrac {
		return c.write(epoch, reqID)
	}
	n, single := spec.Batch, spec.Batch == 0
	if single {
		n = 1
	}
	qs := c.qbuf[:0]
	for i := 0; i < n; i++ {
		qs = append(qs, randQuery(c.rng, c.cfg.Data))
	}
	c.qbuf = qs
	if single {
		c.body = singleBody(c.body, qs[0], spec.Hits)
	} else {
		c.body = batchBody(c.body, qs, spec.Hits)
	}
	s := Sample{ReqID: reqID, Op: opRead, Queries: int32(n)}
	t0 := time.Now()
	code, resp, err := c.conn.do("POST", "/v1/query", c.body, reqID)
	s.Start, s.Lat = t0.Sub(epoch).Nanoseconds(), time.Since(t0).Nanoseconds()
	if s.Outcome = outcomeOf(code, err); s.Outcome != outOK {
		c.noteErr(code, err, resp)
		return s
	}
	cnt, perr := counts(c.cnt[:0], resp)
	c.cnt = cnt
	if perr == nil && !single && len(cnt) > 0 {
		cnt = cnt[1:]
	}
	if perr != nil || len(cnt) != n {
		s.Outcome = outFailed
		c.noteErr(code, fmt.Errorf("response with %d counts for %d queries (%v)", len(cnt), n, perr), resp)
		return s
	}
	for _, k := range cnt {
		s.Answers += int32(k)
	}
	c.offer(qs, cnt, resp)
	return s
}

// offer feeds a read into the client's reservoir sample of checkable
// reads. With writes running, only reads whose y-range stays at or
// below the data's top — clear of the write lanes — are checkable
// during the run; the rest are covered by the quiescent state check.
func (c *client) offer(qs []geom.VQuery, cnt []int, resp []byte) {
	if c.cfg.Spec.WriteFrac > 0 {
		for _, q := range qs {
			if q.YHi > c.cfg.Data.YHi {
				return
			}
		}
	}
	c.seen++
	slot := len(c.checks)
	if slot >= c.keep {
		if slot = c.srng.Intn(c.seen); slot >= c.keep {
			return
		}
	}
	rc := ReadCheck{Queries: append([]geom.VQuery(nil), qs...)}
	if c.cfg.Spec.Hits {
		rc.Body = append([]byte(nil), resp...)
	} else {
		rc.Counts = append([]int(nil), cnt...)
	}
	if slot == len(c.checks) {
		c.checks = append(c.checks, rc)
	} else {
		c.checks[slot] = rc
	}
}

// write issues one insert or delete on the client's lanes: a delete
// targets a segment the client inserted earlier; with nothing owned it
// inserts.
func (c *client) write(epoch time.Time, reqID int64) Sample {
	ls := c.lanes
	del := len(ls.owned) > 0 && c.rng.Intn(2) == 0
	var seg geom.Segment
	var idx int
	path, op := "/v1/insert", uint8(opInsert)
	if del {
		idx = c.rng.Intn(len(ls.owned))
		seg = ls.owned[idx]
		path, op = "/v1/delete", opDelete
	} else {
		seg = c.newLaneSegment()
	}
	c.body = updateBody(c.body, seg)
	s := Sample{ReqID: reqID, Op: op}
	t0 := time.Now()
	code, resp, err := c.conn.do("POST", path, c.body, reqID)
	s.Start, s.Lat = t0.Sub(epoch).Nanoseconds(), time.Since(t0).Nanoseconds()
	s.Outcome = outcomeOf(code, err)
	l := &ls.l
	switch s.Outcome {
	case outOK:
		delete(l.Unsure, seg.ID)
		if del {
			if !bytes.Contains(resp, []byte(`"found":true`)) {
				l.NotFound++
			}
			delete(l.Present, seg.ID)
			l.Absent[seg.ID] = seg
			ls.owned[idx] = ls.owned[len(ls.owned)-1]
			ls.owned = ls.owned[:len(ls.owned)-1]
		} else {
			delete(l.Absent, seg.ID)
			l.Present[seg.ID] = seg
			ls.owned = append(ls.owned, seg)
		}
	case outShed:
		// Refused before admission: nothing changed.
	default:
		// No answer: the write may or may not have applied.
		delete(l.Present, seg.ID)
		delete(l.Absent, seg.ID)
		l.Unsure[seg.ID] = seg
		if del {
			ls.owned[idx] = ls.owned[len(ls.owned)-1]
			ls.owned = ls.owned[:len(ls.owned)-1]
		}
		c.noteErr(code, err, resp)
	}
	return s
}

func outcomeOf(code int, err error) uint8 {
	switch {
	case err != nil:
		return outFailed
	case code == http.StatusOK:
		return outOK
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return outShed
	default:
		return outFailed
	}
}

func (c *client) noteErr(code int, err error, body []byte) {
	if c.errMsg != "" {
		return
	}
	if err == nil {
		err = errors.New(string(bytes.TrimSpace(body)))
	}
	c.errMsg = fmt.Sprintf("status %d: %v", code, err)
}

func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// loadgenMain is the load generator process.
func loadgenMain() {
	dec, enc := gob.NewDecoder(os.Stdin), gob.NewEncoder(os.Stdout)
	var cfg loadConfig
	if err := dec.Decode(&cfg); err != nil {
		fail(fmt.Errorf("loadgen: config: %w", err))
	}
	clients := make([]*client, cfg.Spec.Clients)
	// The oracle checks about 2048 queries in all.
	keep := 2048 / len(clients)
	if cfg.Spec.Batch > 0 {
		keep = max(1, keep/cfg.Spec.Batch)
	}
	for i := range clients {
		clients[i] = &client{
			id:   i,
			conn: newConn(cfg.Addr),
			rng:  rand.New(rand.NewSource(cfg.Seed*1000 + int64(i))),
			srng: rand.New(rand.NewSource(cfg.Seed*1000 + 500 + int64(i))),
			cfg:  cfg,
			keep: keep,
			lanes: &laneState{l: ledger{Present: map[uint64]geom.Segment{}, Absent: map[uint64]geom.Segment{},
				Unsure: map[uint64]geom.Segment{}}},
		}
	}
	epoch := time.Now()
	var nextReq atomic.Int64
	runPhase(clients, epoch, cfg.Warmup, false, &nextReq)
	if err := enc.Encode(loadMsg{}); err != nil {
		fail(fmt.Errorf("loadgen: %w", err))
	}
	var goAhead bool
	if err := dec.Decode(&goAhead); err != nil || !goAhead {
		fail(fmt.Errorf("loadgen: no start signal: %v", err))
	}
	r := &loadReport{EpochUnixNano: epoch.UnixNano()}
	cpu0, start := selfCPU(), time.Now()
	runPhase(clients, epoch, time.Duration(cfg.Seconds)*time.Second, true, &nextReq)
	r.Wall = time.Since(start)
	r.CPUNanos = selfCPU() - cpu0
	r.Ledger = ledger{Present: map[uint64]geom.Segment{}, Absent: map[uint64]geom.Segment{}, Unsure: map[uint64]geom.Segment{}}
	for _, c := range clients {
		c.conn.close()
		r.Samples = append(r.Samples, c.samples...)
		r.Checks = append(r.Checks, c.checks...)
		r.Ledger.merge(c.lanes.l)
		if r.FirstErr == "" {
			r.FirstErr = c.errMsg
		}
	}
	if err := enc.Encode(loadMsg{Report: r}); err != nil {
		fail(fmt.Errorf("loadgen: report: %w", err))
	}
}

// drive runs the load generator against addr: warm-up, then mark(true)
// at the barrier before the timed phase and mark(false) after it, with
// every client idle both times, so counters read there bracket exactly
// the timed requests.
func drive(cfg config, addr string, data bounds, mark func(begin bool) error) (*loadReport, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "-loadgen")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	r, steal, err := converse(cfg, addr, data, mark, gob.NewEncoder(in), gob.NewDecoder(out))
	in.Close()
	if werr := cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("load generator: %w", werr)
	}
	return r, steal, err
}

func converse(cfg config, addr string, data bounds, mark func(begin bool) error, enc *gob.Encoder, dec *gob.Decoder) (*loadReport, float64, error) {
	lc := loadConfig{Addr: addr, Seed: cfg.seed, Spec: cfg.wl.load, Data: data, Warmup: warmup, Seconds: cfg.seconds}
	if err := enc.Encode(lc); err != nil {
		return nil, 0, err
	}
	var m loadMsg
	if err := dec.Decode(&m); err != nil {
		return nil, 0, fmt.Errorf("load generator warm-up: %w", err)
	}
	if err := mark(true); err != nil {
		return nil, 0, err
	}
	tot0, steal0 := cpuTimes()
	if err := enc.Encode(true); err != nil {
		return nil, 0, err
	}
	if err := dec.Decode(&m); err != nil || m.Report == nil {
		return nil, 0, fmt.Errorf("load generator report: %v", err)
	}
	tot1, steal1 := cpuTimes()
	if err := mark(false); err != nil {
		return nil, 0, err
	}
	steal := 0.0
	if tot1 > tot0 {
		steal = float64(steal1-steal0) / float64(tot1-tot0)
	}
	return m.Report, steal, nil
}
