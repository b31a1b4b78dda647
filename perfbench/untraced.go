package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"segdb/internal/geom"
)

// stateQueries is the seeded query set of the quiescent state checks:
// the workload mix plus a line through the write lanes.
func stateQueries(seed int64, d bounds, n int) []geom.VQuery {
	rng := rand.New(rand.NewSource(seed*1000 + 999))
	qs := []geom.VQuery{laneProbe(d)}
	for len(qs) < n {
		qs = append(qs, randQuery(rng, d))
	}
	return qs
}

// runUntraced measures the workload against a segdbd child process.
func runUntraced(cfg config) (*result, error) {
	t, err := buildTools(cfg.tree, filepath.Join(cfg.build, "bin", treeKey(cfg.tree, cfg.root)))
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
	logPath := filepath.Join(cfg.work, "segdbd.log")

	// Set-up is timed as the CPU the daemon spends from exec to its first
	// healthy deep check: the work a change moves into start-up, which
	// hypervisor steal (10-40% between runs on a shared VM) does not
	// stretch as it stretches the wall-clock time printed beside it.
	var (
		setups, setupWalls []float64
		d                  *daemon
		dir                string
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if dir, err = freshCopy(cfg); err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = startDaemon(t.segdbd, daemonArgs(cfg.wl, dir), logPath); err != nil {
			return nil, err
		}
		cpu, err := schedCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		setups, setupWalls = append(setups, cpu), append(setupWalls, took.Seconds())
		if i < setupRuns-1 {
			d.kill()
			d = nil
		}
	}

	conn := newConn(d.addr)
	defer func() { conn.close() }()
	var st0, st1 statsz
	var cpu0, cpu1 float64
	rep, steal, err := drive(cfg, d.addr, bb, func(begin bool) error {
		s, err := fetchStatsz(conn)
		if begin {
			st0, cpu0 = s, procCPU(d.cmd.Process.Pid)
		} else {
			st1, cpu1 = s, procCPU(d.cmd.Process.Pid)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rss := vmHWM(d.cmd.Process.Pid)
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
	lost, stateChecked, stateWrong := 0, 0, 0
	writing := cfg.wl.load.WriteFrac > 0
	if writing {
		// Quiescent check of the acknowledged state, then a crash: kill -9,
		// restart on the same files, and every acknowledged write must
		// have survived.
		l := rep.Ledger
		want := l.expected(data)
		qs := stateQueries(cfg.seed, bb, 256)
		n, w, err := checkState(conn, qs, want, l)
		if err != nil {
			return nil, err
		}
		stateChecked, stateWrong = n, w
		d.kill()
		d = nil
		conn.close()
		if d, _, err = startDaemon(t.segdbd, daemonArgs(cfg.wl, dir), logPath); err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		conn = newConn(d.addr)
		if lost, err = lostWrites(conn, bb, l); err != nil {
			return nil, err
		}
		n, w, err = checkState(conn, qs, want, l)
		if err != nil {
			return nil, err
		}
		stateChecked += n
		stateWrong += w
		if code, body, err := conn.do("POST", "/v1/admin/compact", []byte("{}"), 0); err != nil || code != 200 {
			return nil, fmt.Errorf("final compact: status %d: %v %s", code, err, body)
		}
	}
	final, err := fetchStatsz(conn)
	if err != nil {
		return nil, err
	}
	diskBytes, err := treeBytes(dir)
	if err != nil {
		return nil, err
	}
	res.correct = wrong == 0 && lost == 0 && stateWrong == 0

	// The JSON line carries the metrics that stay steady from run to run
	// on a shared VM; queries_per_s and the tail percentiles swing with
	// the hypervisor's steal and are printed beside them.
	queriesNA := e.queries == 0
	res.gated = []metric{
		{name: "setup_s", unit: "s", value: median(setups), note: fmt.Sprintf("segdbd CPU from exec to first healthy /healthz?deep=1, median of %d starts (%.4g to %.4g)",
			len(setups), slices.Min(setups), slices.Max(setups))},
		{name: "read_p50_ms", unit: "ms", value: ms(pct(e.reads, 0.50)), note: fmt.Sprintf("n=%d reads, every latency recorded", len(e.reads))},
		{name: "rss_peak_mb", unit: "MiB", value: rss, note: "segdbd VmHWM"},
		{name: "disk_bytes_per_segment", unit: "B", value: float64(diskBytes) / float64(max(final.Segments, 1)),
			note: fmt.Sprintf("%d bytes of store files over %d live segments", diskBytes, final.Segments)},
	}
	noWrites := !writing
	res.extra = []metric{
		{name: "setup_wall_s", unit: "s", value: median(setupWalls), note: fmt.Sprintf("exec to first healthy /healthz?deep=1, median of %d starts (%.4g to %.4g)",
			len(setupWalls), slices.Min(setupWalls), slices.Max(setupWalls))},
		{name: "queries_per_s", unit: "1/s", value: e.queriesPerS, note: fmt.Sprintf("%d VS queries answered in %.3fs", e.queries, rep.Wall.Seconds())},
		{name: "read_p99_ms", unit: "ms", value: ms(pct(e.reads, 0.99)), note: fmt.Sprintf("n=%d", len(e.reads))},
		{name: "read_p999_ms", unit: "ms", value: ms(pct(e.reads, 0.999)), note: fmt.Sprintf("n=%d", len(e.reads))},
		{name: "writes_per_s", unit: "1/s", value: e.writesPerS, na: noWrites, note: fmt.Sprintf("%d acknowledged durable writes", len(e.writes))},
		{name: "write_p50_ms", unit: "ms", value: ms(pct(e.writes, 0.50)), na: noWrites, note: fmt.Sprintf("n=%d", len(e.writes))},
		{name: "write_p99_ms", unit: "ms", value: ms(pct(e.writes, 0.99)), na: noWrites, note: fmt.Sprintf("n=%d", len(e.writes))},
		{name: "fail_frac", unit: "ratio", value: frac(e.failed, e.attempted), note: fmt.Sprintf("%d errors + %d sheds of %d attempted", e.failed-e.shed, e.shed, e.attempted)},
		{name: "wrong_answers", unit: "count", value: float64(wrong + stateWrong),
			note: fmt.Sprintf("%d sampled reads checked against brute force, %d state-check queries", checked, stateChecked)},
		{name: "lost_writes", unit: "count", value: float64(lost), na: noWrites, note: "acknowledged writes lost across kill -9 + restart"},
		{name: "index.pages_read_per_query", unit: "pages", value: perQuery(st1.Store.Total.Reads-st0.Store.Total.Reads, e.queries), na: queriesNA,
			note: "exact: /statsz store totals over the timed phase"},
		{name: "index.accesses_per_query", unit: "pages", value: perQuery(st1.Store.Total.Reads+st1.Store.Total.CacheHits-st0.Store.Total.Reads-st0.Store.Total.CacheHits, e.queries), na: queriesNA,
			note: "pool hits + misses, /statsz store totals"},
		{name: "server.windowed_pages_per_query", unit: "pages", value: windowedPerQuery(st0, st1, e.queries), na: queriesNA,
			note: "the server's per-query I/O windows (segdb_query_pages_read mean)"},
		{name: "server.cpu_us_per_query", unit: "us", value: perQuery(int64((cpu1-cpu0)*1e6), e.queries), na: queriesNA, note: "segdbd CPU time (writes included)"},
		{name: "client.cpu_us_per_req", unit: "us", value: e.clientCPUPerReq, note: "load generator process CPU"},
	}
	return res, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perQuery(n, queries int64) float64 {
	if queries == 0 {
		return 0
	}
	return float64(n) / float64(queries)
}

// windowedPerQuery is the server's own per-query I/O attribution over
// the timed phase: the pages-read histogram sums of the single and batch
// endpoints (each request's I/O window) divided by queries answered.
func windowedPerQuery(a, b statsz, queries int64) float64 {
	var sum int64
	for _, ep := range []string{"query", "batch"} {
		sum += b.Endpoints[ep].PagesRead.Sum - a.Endpoints[ep].PagesRead.Sum
	}
	return perQuery(sum, queries)
}

// treeKey names the binary directory of a measured tree.
func treeKey(tree, root string) string {
	if tree == root {
		return "head"
	}
	h := fnv.New32a()
	h.Write([]byte(tree))
	return fmt.Sprintf("tree-%08x", h.Sum32())
}
