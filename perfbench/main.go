// Command perfbench is segdb's end-to-end benchmark. It builds segdb and
// segdbd from a source tree, generates a seeded segment set, and drives
// one of three serving workloads closed-loop over loopback HTTP:
//
//	point-cold       read-only Solution-2 file, pool ~18% of the index, 1 client
//	batch-shard-hot  4-shard store held entirely in the pool, 1 client, batches of 8
//	mixed-wal        -wal daemon, 80% reads / 20% durable writes, auto-compaction, 2 clients
//
// Every request's latency is recorded exactly after a warm-up phase, a
// seeded sample of answers is checked against brute force, and
// mixed-wal ends with kill -9, restart and a check of every
// acknowledged write. With -trace 1 the daemon's layers are assembled
// inside this process from the same constructors segdbd uses, with a
// timing wrapper at each layer boundary, and the per-layer metrics are
// reported instead of the end-to-end ones.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload point-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is a JSON object with the fields
// correct, attempted, failed and metrics; the exit status is 1 when an
// answer was wrong or an acknowledged write was lost. Build products,
// prepared data, per-run results and span dumps go to .bench_build/.
// -tree measures the segdb/segdbd of another source tree, for example an
// export of an older revision, with this benchmark (untraced runs only).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Every workload serves the same data: segdb gen -kind layers -n 20000
// (about 20.1k segments) at the run's seed, blocks of 32 segments.
const (
	segments  = 20000
	blockCap  = "32"
	warmup    = 3 * time.Second
	setupRuns = 11 // set-up is repeated and its median reported
)

// backend is how a workload's store is prepared and served.
type backend int

const (
	fileBackend  backend = iota // read-only Solution-2 index file
	shardBackend                // segdb shard store, segdbd -shards
	walBackend                  // Solution-1 checkpoint + WAL, segdbd -wal
)

type workload struct {
	load    loadSpec
	backend backend
	cache   int   // segdbd -cache (split across shards in shard mode)
	compact int64 // segdbd -auto-compact-records; 0 leaves it off
}

var workloads = map[string]workload{
	// Per-request overhead and pool misses through the file device and
	// page checksums: the pool holds 256 of the index's ~1424 pages.
	"point-cold": {load: loadSpec{Clients: 1}, backend: fileBackend, cache: 256},
	// Solution-1 search, batch workers, shard routing and hit encoding;
	// 4096 pool pages hold every shard (~1.56k pages in total). One client
	// and ~1 ms batches keep the two cores from saturating: a saturated
	// closed loop's latency follows the hypervisor's steal, which swings
	// 10-40% between runs on a shared 2-core VM.
	"batch-shard-hot": {load: loadSpec{Clients: 1, Batch: 8, Hits: true}, backend: shardBackend, cache: 4096},
	// Durable writes, WAL fsync and background compaction beside reads
	// on the same lock. Every write is fsynced alone (no group-commit
	// window); 2000 WAL records per compaction fire several compactions
	// in a run.
	"mixed-wal": {load: loadSpec{Clients: 2, WriteFrac: 0.2}, backend: walBackend, cache: 256, compact: 2000},
}

func init() {
	// segdbd children are started with Pdeathsig, which fires when the
	// forking thread exits; keep every fork on the main thread.
	runtime.LockOSThread()
}

type config struct {
	root, tree string
	name       string
	wl         workload
	seed       int64
	seconds    int
	trace      bool
	build      string // .bench_build
	work       string // this workload's scratch
}

func main() {
	var cfg config
	flag.StringVar(&cfg.root, "root", ".", "repository checkout holding .bench_build")
	flag.StringVar(&cfg.tree, "tree", "", "source tree whose segdb/segdbd to measure; default -root")
	flag.StringVar(&cfg.name, "workload", "", "point-cold, batch-shard-hot or mixed-wal")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and request streams")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced, in-process variant and reports per-layer metrics")
	loadgen := flag.Bool("loadgen", false, "run as the load generator child process")
	flag.Parse()
	if *loadgen {
		loadgenMain()
		return
	}
	wl, ok := workloads[cfg.name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (point-cold, batch-shard-hot, mixed-wal)", cfg.name))
	}
	cfg.wl, cfg.trace = wl, *traceFlag == 1
	if cfg.seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fail(err)
	}
	if cfg.tree == "" {
		cfg.tree = cfg.root
	}
	if cfg.tree, err = filepath.Abs(cfg.tree); err != nil {
		fail(err)
	}
	if cfg.trace && cfg.tree != cfg.root {
		fail(fmt.Errorf("-trace 1 hosts the layers of the tree the benchmark is built in; -tree applies to untraced runs"))
	}
	cfg.build = filepath.Join(cfg.root, ".bench_build")
	cfg.work = filepath.Join(cfg.build, "work", cfg.name)

	var res *result
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fail(err)
	}
	res.print(cfg)
	if !res.correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// prepare generates the seeded data and builds the workload's store with
// the tools under test into work/prep, returning the data's CSV path.
func prepare(cfg config, t tools) (string, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return "", err
	}
	prep := filepath.Join(cfg.work, "prep")
	if err := os.MkdirAll(prep, 0o755); err != nil {
		return "", err
	}
	csv := filepath.Join(cfg.work, "segs.csv")
	if err := run(t.segdb, "gen", "-kind", "layers", "-n", fmt.Sprint(segments), "-seed", fmt.Sprint(cfg.seed), "-out", csv); err != nil {
		return "", err
	}
	var err error
	switch cfg.wl.backend {
	case fileBackend:
		err = run(t.segdb, "build", "-in", csv, "-db", filepath.Join(prep, "index.db"), "-b", blockCap, "-sol", "2")
	case shardBackend:
		err = run(t.segdb, "shard", "-in", csv, "-out", filepath.Join(prep, "shards"), "-shards", "4", "-b", blockCap)
	case walBackend:
		err = run(t.segdb, "build", "-in", csv, "-db", filepath.Join(prep, "ckpt.db"), "-b", blockCap, "-sol", "1")
	}
	return csv, err
}

// freshCopy replaces work/run with a copy of the prepared store, so every
// start sees identical files and an empty WAL.
func freshCopy(cfg config) (string, error) {
	dir := filepath.Join(cfg.work, "run")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, copyTree(filepath.Join(cfg.work, "prep"), dir)
}

// daemonArgs is the segdbd command line for the workload over run dir.
func daemonArgs(wl workload, dir string) []string {
	cache := fmt.Sprint(wl.cache)
	switch wl.backend {
	case shardBackend:
		return []string{"-shards", "4", "-db", filepath.Join(dir, "shards"), "-cache", cache}
	case walBackend:
		return []string{"-db", filepath.Join(dir, "ckpt.db"), "-wal", filepath.Join(dir, "ckpt.wal"), "-cache", cache,
			"-group-commit-window", "0", "-auto-compact-records", fmt.Sprint(wl.compact)}
	default:
		return []string{"-db", filepath.Join(dir, "index.db"), "-cache", cache}
	}
}

// e2e are the end-to-end figures of one driven run.
type e2e struct {
	attempted, failed, shed int
	queries, answers        int64
	reads, writes           []int64 // ok latencies, ns, sorted
	queriesPerS, writesPerS float64
	clientCPUPerReq         float64 // µs
}

// summarize folds samples measured over wall; cpu is the load
// generator's CPU time over the whole timed phase.
func summarize(samples []Sample, wall time.Duration, cpu int64) e2e {
	var e e2e
	for _, s := range samples {
		e.attempted++
		switch s.Outcome {
		case outShed:
			e.shed++
			e.failed++
			continue
		case outFailed:
			e.failed++
			continue
		}
		if s.Op == opRead {
			e.reads = append(e.reads, s.Lat)
			e.queries += int64(s.Queries)
			e.answers += int64(s.Answers)
		} else {
			e.writes = append(e.writes, s.Lat)
		}
	}
	sort.Slice(e.reads, func(i, j int) bool { return e.reads[i] < e.reads[j] })
	sort.Slice(e.writes, func(i, j int) bool { return e.writes[i] < e.writes[j] })
	e.queriesPerS = float64(e.queries) / wall.Seconds()
	e.writesPerS = float64(len(e.writes)) / wall.Seconds()
	if e.attempted > 0 {
		e.clientCPUPerReq = float64(cpu) / 1e3 / float64(e.attempted)
	}
	return e
}

// pct is the nearest-rank percentile of sorted values, 0 when empty.
func pct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported figure; na marks a metric the workload does not
// exercise (reported as 0).
type metric struct {
	name, unit string
	value      float64
	na         bool
	note       string
}

// result is a finished run.
type result struct {
	correct           bool
	attempted, failed int
	gated             []metric // the JSON line's metrics
	extra             []metric // printed, not gated
	notes             []string
	prov              provenance
	compare           []metric // traced run: end-to-end figures beside the untraced run's
}

func (r *result) print(cfg config) {
	mode := "untraced: segdbd child process"
	if cfg.trace {
		mode = "traced: layers hosted in-process"
	}
	fmt.Printf("perfbench %s seed %d, %ds measured after %v warm-up (%s)\n", cfg.name, cfg.seed, cfg.seconds, warmup, mode)
	p := r.prov
	fmt.Printf("  tree %s (%s), %s, GOMAXPROCS %d, nproc %d, cpu %q, steal %.1f%% over the run\n",
		p.Tree, p.Revision, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel, 100*p.StealFrac)
	show := func(m metric) {
		v := fmt.Sprintf("%.6g", m.value)
		if m.na {
			v = "n/a"
		}
		fmt.Printf("  %-30s %14s %-6s %s\n", m.name, v, m.unit, m.note)
	}
	for _, m := range r.gated {
		show(m)
	}
	for _, m := range r.extra {
		show(m)
	}
	if len(r.compare) > 0 {
		fmt.Printf("  end-to-end, traced run vs latest untraced run of %s (the gap is wrapper overhead plus run-to-run noise):\n", cfg.name)
		prev := loadLatest(cfg)
		for _, m := range r.compare {
			u := "-"
			if v, ok := prev[m.name]; ok {
				u = fmt.Sprintf("%.6g", v)
			}
			fmt.Printf("  %-30s traced %12.6g  untraced %12s %s\n", m.name, m.value, u, m.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
	r.save(cfg)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]map[string]any{}}
	for _, m := range r.gated {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// save records the run under .bench_build/results, keyed by workload and
// mode, so a traced run can print the untraced figures beside its own.
// The record is informational: a failure to write it is reported and the
// run's result stands.
func (r *result) save(cfg config) {
	all := map[string]any{"workload": cfg.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "provenance": r.prov}
	vals := map[string]float64{}
	for _, m := range append(append([]metric(nil), r.gated...), r.extra...) {
		if !m.na {
			vals[m.name] = m.value
		}
	}
	all["metrics"] = vals
	dir := filepath.Join(cfg.build, "results")
	b, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-trace%d.json", cfg.name, btoi(cfg.trace))), b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving the run record: %v\n", err)
	}
}

func loadLatest(cfg config) map[string]float64 {
	var r struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	b, err := os.ReadFile(filepath.Join(cfg.build, "results", cfg.name+"-trace0.json"))
	if err == nil {
		json.Unmarshal(b, &r)
	}
	return r.Metrics
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
