package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"segdb"
	"segdb/internal/pager"
	"segdb/internal/repl"
	"segdb/internal/server"
	"segdb/internal/shard"
)

// The traced run hosts the daemon's layers in this process, assembled
// from the constructors cmd/segdbd uses with the flags the untraced run
// passes it, and wraps each layer boundary in a timing wrapper. Nothing
// inside the program is instrumented (segdbd's own tracing stays off).

// tracedHandler is the HTTP boundary: srv.Handler().
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	tok := t.rec.begin(lHandler, req)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	defer t.rec.end(tok, func(s *span) {
		s.status, s.bytes, s.read = int32(cw.status), cw.n, r.URL.Path == "/v1/query"
	})
	t.h.ServeHTTP(cw, r)
}

// tracedIndex is the served read surface (server.Index): a SyncIndex
// (layer syncindex) or a shard.Store (layer shard).
type tracedIndex struct {
	ix    server.Index
	rec   *recorder
	layer uint8
}

func (t *tracedIndex) QueryContext(ctx context.Context, q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	tok := t.rec.begin(t.layer, 0)
	defer t.rec.end(tok, nil)
	return t.ix.QueryContext(ctx, q, emit)
}

func (t *tracedIndex) QueryBatchContext(ctx context.Context, queries []segdb.Query, parallelism int) []segdb.BatchResult {
	tok := t.rec.begin(lBatch, 0)
	defer t.rec.end(tok, nil)
	return t.ix.QueryBatchContext(ctx, queries, parallelism)
}

func (t *tracedIndex) Len() int { return t.ix.Len() }

// tracedShards keeps the shard store's per-shard /statsz rows.
type tracedShards struct {
	*tracedIndex
	s *shard.Store
}

func (t tracedShards) ShardStatus() []shard.Status { return t.s.ShardStatus() }

// tracedInner is the segdb.Index SynchronizedOn wraps: the search itself.
type tracedInner struct {
	segdb.Index
	rec *recorder
}

func (t tracedInner) Query(q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	tok := t.rec.begin(lIndex, 0)
	defer t.rec.end(tok, nil)
	return t.Index.Query(q, emit)
}

// tracedDevice times page reads: above the checksum device (or the live
// store's memory device) they are the pool's misses; below it, the raw
// file reads.
type tracedDevice struct {
	pager.Device
	rec   *recorder
	layer uint8
}

func (d tracedDevice) ReadPage(idx uint32, p []byte) error {
	tok := d.rec.begin(d.layer, 0)
	defer d.rec.end(tok, nil)
	return d.Device.ReadPage(idx, p)
}

// tracedChecksum keeps the checksum device's marker visible through the
// wrapper: segdb.Open refuses a v3 file on a store that does not verify
// checksums.
type tracedChecksum struct {
	tracedDevice
	c *pager.ChecksumDevice
}

func (d tracedChecksum) Checksummed() bool { return d.c.Checksummed() }

// durableBackend is the write surface both read-write stores offer.
type durableBackend interface {
	server.Updater
	InsertContext(ctx context.Context, seg segdb.Segment) (segdb.UpdateStats, error)
	DeleteContext(ctx context.Context, seg segdb.Segment) (bool, segdb.UpdateStats, error)
	Compact() error
}

// tracedUpdater is the write boundary (server.Updater), recording each
// update's UpdateStats on its span.
type tracedUpdater struct {
	u   durableBackend
	rec *recorder
}

func (t tracedUpdater) done(tok token, st segdb.UpdateStats) {
	t.rec.end(tok, func(s *span) {
		s.accesses, s.written = int32(st.PagesRead+st.PoolHits), int32(st.PagesWritten)
	})
}

func (t tracedUpdater) InsertContext(ctx context.Context, seg segdb.Segment) (segdb.UpdateStats, error) {
	tok := t.rec.begin(lDurable, 0)
	st, err := t.u.InsertContext(ctx, seg)
	t.done(tok, st)
	return st, err
}

func (t tracedUpdater) DeleteContext(ctx context.Context, seg segdb.Segment) (bool, segdb.UpdateStats, error) {
	tok := t.rec.begin(lDurable, 0)
	found, st, err := t.u.DeleteContext(ctx, seg)
	t.done(tok, st)
	return found, st, err
}

func (t tracedUpdater) Insert(seg segdb.Segment) (segdb.UpdateStats, error) {
	return t.InsertContext(context.Background(), seg)
}

func (t tracedUpdater) Delete(seg segdb.Segment) (bool, segdb.UpdateStats, error) {
	return t.DeleteContext(context.Background(), seg)
}

func (t tracedUpdater) WALStats() (records, size, durable int64) { return t.u.WALStats() }
func (t tracedUpdater) WALWedged() error                         { return t.u.WALWedged() }
func (t tracedUpdater) Compact() error                           { return t.u.Compact() }

// tracedWAL is the log's file (DurableOptions.WALFile): appends and
// fsyncs.
type tracedWAL struct {
	*os.File
	rec *recorder
}

func (f tracedWAL) WriteAt(p []byte, off int64) (int, error) {
	tok := f.rec.begin(lWALAppend, 0)
	n, err := f.File.WriteAt(p, off)
	f.rec.end(tok, func(s *span) { s.bytes = int64(n) })
	return n, err
}

func (f tracedWAL) Sync() error {
	tok := f.rec.begin(lWALSync, 0)
	defer f.rec.end(tok, nil)
	return f.File.Sync()
}

// tracedUnit is the CompactUnit handed to the governor.
type tracedUnit struct {
	segdb.CompactUnit
	rec *recorder
}

func (u tracedUnit) Compact() error {
	tok := u.rec.begin(lCompact, 0)
	defer u.rec.end(tok, nil)
	return u.CompactUnit.Compact()
}

// hosted is the in-process daemon.
type hosted struct {
	srv  *server.Server
	addr string
	st   *segdb.Store // nil for the shard store
	shs  *shard.Store
	stop func() // governor, listener and stores
}

// serverConfig mirrors segdbd's flag defaults.
func serverConfig() server.Config {
	return server.Config{
		MaxInflight:      64,
		DefaultTimeout:   5 * time.Second,
		RetryAfter:       time.Second,
		MaxBatch:         1024,
		BatchParallelism: 4,
		SlowLatency:      250 * time.Millisecond,
		SlowLogSize:      128,
		SlowCompact:      time.Second,
		TraceRing:        64,
	}
}

// host assembles the workload's serving stack over the run dir, the way
// cmd/segdbd does for the untraced run's flags, and serves it on a
// loopback port.
func host(cfg config, dir string, rec *recorder, logf func(string, ...any)) (*hosted, error) {
	h := &hosted{}
	scfg := serverConfig()
	var (
		served  server.Index
		closers []func() error
		gov     *segdb.Governor
	)
	live := func(d pager.Device) pager.Device { return tracedDevice{d, rec, lPager} }
	switch cfg.wl.backend {
	case fileBackend:
		// segdb.OpenIndexFile, unrolled so each device gets its wrapper.
		path := filepath.Join(dir, "index.db")
		segdb.RecoverIndexFile(path)
		_, pageSize, version, err := segdb.ProbeFileVersion(path)
		if err != nil {
			return nil, err
		}
		if version != 3 {
			return nil, fmt.Errorf("%s: catalog v%d, the traced run expects checksummed v3 files", path, version)
		}
		raw, err := pager.OpenFileDevice(path, pager.PhysicalPageSize(pageSize))
		if err != nil {
			return nil, err
		}
		cdev := pager.NewChecksumDevice(tracedDevice{raw, rec, lFile}, pageSize)
		st, err := pager.Open(tracedChecksum{tracedDevice{cdev, rec, lPager}, cdev}, pageSize, cfg.wl.cache)
		if err != nil {
			raw.Close()
			return nil, err
		}
		ix, err := segdb.Open(st)
		if err != nil {
			st.Close()
			return nil, err
		}
		h.st = st
		served = &tracedIndex{segdb.SynchronizedOn(tracedInner{ix, rec}, st), rec, lSync}
		closers = append(closers, st.Close)
	case shardBackend:
		perShard := max(cfg.wl.cache/4, 16)
		shs, err := shard.Open(filepath.Join(dir, "shards"), shard.Config{
			Shards:  4,
			Durable: segdb.DurableOptions{CachePages: perShard, LiveDevice: live},
		})
		if err != nil {
			return nil, err
		}
		h.shs = shs
		served = tracedShards{&tracedIndex{shs, rec, lShard}, shs}
		scfg.Updater = tracedUpdater{shs, rec}
		scfg.MaxInflightUpdates = 16
		closers = append(closers, shs.Close)
	case walBackend:
		walPath := filepath.Join(dir, "ckpt.wal")
		f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		dix, err := segdb.OpenDurableIndex(filepath.Join(dir, "ckpt.db"), walPath, segdb.DurableOptions{
			CachePages: cfg.wl.cache,
			WALFile:    tracedWAL{f, rec},
			LiveDevice: live,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		h.st = dix.Store()
		served = &tracedIndex{dix.Index(), rec, lSync}
		scfg.Updater = tracedUpdater{dix, rec}
		scfg.MaxInflightUpdates = 16
		leader := repl.NewLeader(dix)
		scfg.Repl = leader
		closers = append(closers, dix.Close)
		gov = segdb.NewGovernor([]segdb.CompactUnit{tracedUnit{dix, rec}}, segdb.GovernorConfig{
			Records:  cfg.wl.compact,
			Interval: time.Second,
			Logf:     logf,
			OnCompact: func(unit int, took time.Duration, err error) {
				h.srv.ObserveCompaction(true, took, err)
			},
			OnDefer: func(int, string) { h.srv.ObserveCompactDeferral() },
			Defer: func() (string, bool) {
				if lag, id, ok := leader.ActiveTailLag(); ok && lag <= 1<<20 {
					return fmt.Sprintf("follower %q tailing %d bytes behind", id, lag), true
				}
				return "", false
			},
		})
	}
	closeAll := func() {
		for _, c := range closers {
			if err := c(); err != nil {
				logf("close: %v", err)
			}
		}
	}
	h.srv = server.New(served, h.st, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeAll()
		return nil, err
	}
	h.addr = ln.Addr().String()
	hs := &http.Server{Handler: tracedHandler{h.srv.Handler(), rec}, ErrorLog: log.New(logWriter{logf}, "", 0)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	govCtx, govCancel := context.WithCancel(context.Background())
	govDone := make(chan struct{})
	go func() {
		defer close(govDone)
		if gov != nil {
			gov.Run(govCtx)
		}
	}()
	h.stop = func() {
		govCancel()
		<-govDone
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := h.srv.Drain(ctx); err != nil {
			logf("drain: %v", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			logf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("serve: %v", err)
		}
		closeAll()
	}
	return h, nil
}

type logWriter struct{ logf func(string, ...any) }

func (w logWriter) Write(p []byte) (int, error) {
	w.logf("%s", p)
	return len(p), nil
}

// counters are the in-process store counters the traced run brackets the
// timed phase with.
type counters struct {
	total    pager.Stats
	shards   []pager.Stats
	windowed int64 // the server's per-query pages-read sums (query + batch)
}

func (h *hosted) counters() counters {
	var c counters
	snap := h.srv.Snapshot()
	for _, ep := range []string{"query", "batch"} {
		c.windowed += snap.Endpoints[ep].PagesRead.Sum
	}
	if h.shs != nil {
		for _, row := range h.shs.ShardStatus() {
			c.shards = append(c.shards, row.IO)
			c.total = c.total.Add(row.IO)
		}
	} else {
		c.total = h.st.Stats()
	}
	return c
}

// runTraced measures the workload against the in-process stack and
// reports the per-layer metrics.
func runTraced(cfg config) (*result, error) {
	t, err := buildTools(cfg.tree, filepath.Join(cfg.build, "bin", "head"))
	if err != nil {
		return nil, err
	}
	csv, err := prepare(cfg, t)
	if err != nil {
		return nil, err
	}
	data, bb, err := loadCSV(csv)
	if err != nil {
		return nil, err
	}
	dir, err := freshCopy(cfg)
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(cfg.work, "hosted.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	logger := log.New(logFile, "", log.LstdFlags|log.Lmicroseconds)

	rec := newRecorder()
	t0 := time.Now()
	h, err := host(cfg, dir, rec, logger.Printf)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			h.stop()
		}
	}()
	for !healthy(h.addr) {
		if time.Since(t0) > time.Minute {
			return nil, fmt.Errorf("hosted stack not healthy after a minute")
		}
		time.Sleep(200 * time.Microsecond)
	}
	setup := time.Since(t0)

	var c0, c1 counters
	var w0, w1 int64
	rep, steal, err := drive(cfg, h.addr, bb, func(begin bool) error {
		if begin {
			c0, w0 = h.counters(), rec.now()
		} else {
			c1, w1 = h.counters(), rec.now()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e := summarize(rep.Samples, rep.Wall, rep.CPUNanos)
	res := &result{attempted: e.attempted, failed: e.failed, prov: newProvenance(cfg.tree)}
	res.prov.StealFrac = steal
	if rep.FirstErr != "" {
		res.notes = append(res.notes, "first failed request: "+rep.FirstErr)
	}
	checked, wrong, firstWrong := checkReads(oracle{data}, rep.Checks)
	if firstWrong != "" {
		res.notes = append(res.notes, "wrong answer: "+firstWrong)
	}
	conn := newConn(h.addr)
	defer conn.close()
	stateChecked, stateWrong := 0, 0
	if cfg.wl.load.WriteFrac > 0 {
		l := rep.Ledger
		if stateChecked, stateWrong, err = checkState(conn, stateQueries(cfg.seed, bb, 256), l.expected(data), l); err != nil {
			return nil, err
		}
		if code, body, err := conn.do("POST", "/v1/admin/compact", []byte("{}"), 0); err != nil || code != 200 {
			return nil, fmt.Errorf("final compact: status %d: %v %s", code, err, body)
		}
		res.notes = append(res.notes, "the traced run checks the acknowledged state at a quiescent point; kill -9 and lost_writes belong to the untraced run")
	}
	conn.close()
	h.stop()
	stopped = true
	res.correct = wrong == 0 && stateWrong == 0

	spans := rec.snapshot()
	traceDir := filepath.Join(cfg.build, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(traceDir, cfg.name+".tsv")
	if err := dump(tracePath, rec.epoch, spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s; %d sampled reads + %d state-check queries checked against brute force, %d wrong",
		len(spans), tracePath, checked, stateChecked, wrong+stateWrong))

	res.gated = layerMetrics(spans, w0, w1, rep, rec.epoch, e, c0, c1)
	res.compare = []metric{
		{name: "setup_wall_s", unit: "s", value: setup.Seconds()},
		{name: "queries_per_s", unit: "1/s", value: e.queriesPerS},
		{name: "read_p50_ms", unit: "ms", value: ms(pct(e.reads, 0.50))},
		{name: "read_p99_ms", unit: "ms", value: ms(pct(e.reads, 0.99))},
	}
	if len(e.writes) > 0 {
		res.compare = append(res.compare,
			metric{name: "writes_per_s", unit: "1/s", value: e.writesPerS},
			metric{name: "write_p50_ms", unit: "ms", value: ms(pct(e.writes, 0.50))},
			metric{name: "write_p99_ms", unit: "ms", value: ms(pct(e.writes, 0.99))})
	}
	return res, nil
}
