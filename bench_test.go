// Benchmarks: one testing.B benchmark per experiment of EXPERIMENTS.md
// (DESIGN.md §4 maps each to the paper claim it validates). Each
// benchmark reports ios/op — physical page transfers per operation in the
// I/O model — alongside Go's wall-clock metrics; the I/O figure is the
// one the paper's bounds speak about. cmd/segbench prints the full
// parameter sweeps; these benchmarks pin one representative point each so
// `go test -bench=.` regenerates every row shape quickly.
package segdb_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"segdb"
	"segdb/internal/bpst"
	"segdb/internal/geom"
	"segdb/internal/multislab"
	"segdb/internal/pager"
	"segdb/internal/pst"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
	"segdb/internal/workload"
)

const (
	benchB    = 32
	benchSeed = 1998
)

func benchPageSize() int { return 64 + 48*benchB }

// reportIOs runs fn b.N times against queries (round-robin) and reports
// physical reads per operation.
func reportIOs(b *testing.B, st *pager.Store, queries []geom.VQuery, fn func(geom.VQuery) error) {
	b.Helper()
	st.DropCache()
	st.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Stats().Reads)/float64(b.N), "ios/op")
}

func fanQueries(rng *rand.Rand, n, count int) []geom.VQuery {
	queries := make([]geom.VQuery, count)
	for i := range queries {
		x := rng.Float64() * 90
		y := rng.Float64() * float64(n)
		queries[i] = geom.VSeg(x, y, y+20)
	}
	return queries
}

// BenchmarkE1PSTQuery: Lemma 2(ii), binary PST query O(log n + t).
func BenchmarkE1PSTQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 65536
	segs := workload.FanVertical(rng, n, 0, geom.SideRight, 100, n)
	st := pager.MustOpenMem(benchPageSize(), 0)
	tr, err := pst.Build(st, 0, geom.SideRight, benchB, segs)
	if err != nil {
		b.Fatal(err)
	}
	reportIOs(b, st, fanQueries(rng, n, 512), func(q geom.VQuery) error {
		_, err := tr.Query(q, func(geom.Segment) {})
		return err
	})
}

// BenchmarkE2BPSTQuery: Lemma 3(ii) substitute, accelerated PST query
// O(log_B n + t).
func BenchmarkE2BPSTQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 65536
	segs := workload.FanVertical(rng, n, 0, geom.SideRight, 100, n)
	st := pager.MustOpenMem(benchPageSize(), 0)
	tr, err := bpst.Build(st, 0, geom.SideRight, segs)
	if err != nil {
		b.Fatal(err)
	}
	reportIOs(b, st, fanQueries(rng, n, 512), func(q geom.VQuery) error {
		_, err := tr.Query(q, func(geom.Segment) {})
		return err
	})
}

// BenchmarkE3PSTSpace: Lemmas 2(i)/3(i), linear space — measured as build
// cost and reported as pages per segment.
func BenchmarkE3PSTSpace(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 32768
	segs := workload.FanVertical(rng, n, 0, geom.SideRight, 100, n)
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		st := pager.MustOpenMem(benchPageSize(), 0)
		if _, err := pst.Build(st, 0, geom.SideRight, benchB, segs); err != nil {
			b.Fatal(err)
		}
		pages = st.PagesInUse()
	}
	b.ReportMetric(float64(pages)/float64(n), "pages/seg")
}

// BenchmarkE4Sol1Query: Theorem 1(ii).
func BenchmarkE4Sol1Query(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.Layers(rng, 320, 100, 32000)
	st := pager.MustOpenMem(benchPageSize(), 0)
	ix, err := sol1.Build(st, sol1.Config{B: benchB}, segs)
	if err != nil {
		b.Fatal(err)
	}
	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 512, box, 5)
	reportIOs(b, st, queries, func(q geom.VQuery) error {
		_, err := ix.Query(q, func(geom.Segment) {})
		return err
	})
}

// BenchmarkE5Sol1Space: Theorem 1(i).
func BenchmarkE5Sol1Space(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.Layers(rng, 160, 100, 16000)
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		st := pager.MustOpenMem(benchPageSize(), 0)
		if _, err := sol1.Build(st, sol1.Config{B: benchB}, segs); err != nil {
			b.Fatal(err)
		}
		pages = st.PagesInUse()
	}
	b.ReportMetric(float64(pages)/float64(len(segs)), "pages/seg")
}

func buildSol2Bench(b *testing.B, bridges bool) (*pager.Store, *sol2.Index, []geom.VQuery) {
	b.Helper()
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.WideLevels(rng, 32000, 3200)
	st := pager.MustOpenMem(benchPageSize(), 0)
	ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
	if err != nil {
		b.Fatal(err)
	}
	ix.UseBridges = bridges
	box := workload.BBox(segs)
	return st, ix, workload.RandomVS(rng, 512, box, 20)
}

// BenchmarkE6Sol2NoCascade: Lemma 4(ii), cascading disabled.
func BenchmarkE6Sol2NoCascade(b *testing.B) {
	st, ix, queries := buildSol2Bench(b, false)
	reportIOs(b, st, queries, func(q geom.VQuery) error {
		_, err := ix.Query(q, func(geom.Segment) {})
		return err
	})
}

// BenchmarkE7Sol2Query: Theorem 2(ii), cascading enabled.
func BenchmarkE7Sol2Query(b *testing.B) {
	st, ix, queries := buildSol2Bench(b, true)
	reportIOs(b, st, queries, func(q geom.VQuery) error {
		_, err := ix.Query(q, func(geom.Segment) {})
		return err
	})
}

// BenchmarkE8Sol2Space: Theorem 2(i).
func BenchmarkE8Sol2Space(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.WideLevels(rng, 16000, 16000)
	b.ResetTimer()
	var pages int
	for i := 0; i < b.N; i++ {
		st := pager.MustOpenMem(benchPageSize(), 0)
		if _, err := sol2.Build(st, sol2.Config{B: benchB}, segs); err != nil {
			b.Fatal(err)
		}
		pages = st.PagesInUse()
	}
	b.ReportMetric(float64(pages)/float64(len(segs)), "pages/seg")
}

// BenchmarkE9OutputSensitivity: the +t term, large-output queries.
func BenchmarkE9OutputSensitivity(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.Layers(rng, 320, 100, 32000)
	st := pager.MustOpenMem(benchPageSize(), 0)
	ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
	if err != nil {
		b.Fatal(err)
	}
	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 512, box, 0)
	for i := range queries {
		queries[i].YHi = queries[i].YLo + 640 // tall queries: T ≫ B
	}
	reportIOs(b, st, queries, func(q geom.VQuery) error {
		_, err := ix.Query(q, func(geom.Segment) {})
		return err
	})
}

// BenchmarkE10Sol1Insert: Theorem 1(iii), amortized insertion.
func BenchmarkE10Sol1Insert(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.Layers(rng, 640, 100, 64000)
	st := pager.MustOpenMem(benchPageSize(), 0)
	ix, err := sol1.Build(st, sol1.Config{B: benchB}, nil)
	if err != nil {
		b.Fatal(err)
	}
	st.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Insert(segs[i%len(segs)].WithID(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Stats().IOs())/float64(b.N), "ios/op")
}

// BenchmarkE11Sol2Insert: Theorem 2(iii), amortized insertion.
func BenchmarkE11Sol2Insert(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.Levels(rng, 64000, 64000, 1.3)
	st := pager.MustOpenMem(benchPageSize(), 0)
	ix, err := sol2.Build(st, sol2.Config{B: benchB}, nil)
	if err != nil {
		b.Fatal(err)
	}
	st.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Insert(segs[i%len(segs)].WithID(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Stats().IOs())/float64(b.N), "ios/op")
}

// BenchmarkE12BaselineCrossover: tall stacks, short queries — the regime
// where VS structures beat stab-and-filter. Run with -bench E12 and
// compare the two sub-benchmarks' ios/op.
func BenchmarkE12BaselineCrossover(b *testing.B) {
	segs := workload.Stacks(64, 256, 20)
	rng := rand.New(rand.NewSource(benchSeed))
	queries := make([]geom.VQuery, 512)
	for i := range queries {
		col := rng.Intn(64)
		x := float64(col)*21 + rng.Float64()*20
		y := rng.Float64() * 256
		queries[i] = geom.VSeg(x, y, y+2)
	}
	b.Run("solution2", func(b *testing.B) {
		st := pager.MustOpenMem(benchPageSize(), 0)
		ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
		if err != nil {
			b.Fatal(err)
		}
		reportIOs(b, st, queries, func(q geom.VQuery) error {
			_, err := ix.Query(q, func(geom.Segment) {})
			return err
		})
	})
	b.Run("stabfilter", func(b *testing.B) {
		st := segdb.NewMemStore(benchB, 0)
		ix, err := segdb.NewStabFilterBaseline(st, benchB, segs)
		if err != nil {
			b.Fatal(err)
		}
		reportIOs(b, st, queries, func(q geom.VQuery) error {
			_, err := ix.Query(q, func(segdb.Segment) {})
			return err
		})
	})
}

// BenchmarkE13BlockSize: query cost vs B.
func BenchmarkE13BlockSize(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.Layers(rng, 160, 100, 16000)
	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 512, box, 5)
	for _, blockB := range []int{8, 32, 128} {
		b.Run(map[int]string{8: "B8", 32: "B32", 128: "B128"}[blockB], func(b *testing.B) {
			st := pager.MustOpenMem(64+48*blockB, 0)
			ix, err := sol2.Build(st, sol2.Config{B: blockB}, segs)
			if err != nil {
				b.Fatal(err)
			}
			reportIOs(b, st, queries, func(q geom.VQuery) error {
				_, err := ix.Query(q, func(geom.Segment) {})
				return err
			})
		})
	}
}

// BenchmarkE17Planarize: ingestion throughput of the NCT repair step
// (segments planarized per second; ios/op is zero — it is pure CPU).
func BenchmarkE17Planarize(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	const n = 4000
	raw := make([]geom.Segment, n)
	for i := range raw {
		x, y := rng.Float64()*8000, rng.Float64()*8000
		raw[i] = geom.Seg(uint64(i+1), x, y,
			x+(rng.Float64()-0.5)*100, y+(rng.Float64()-0.5)*100)
	}
	b.ResetTimer()
	pieces := 0
	for i := 0; i < b.N; i++ {
		pieces = len(geom.Planarize(raw, 0))
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "segs/sec")
	b.ReportMetric(float64(pieces)/float64(n), "pieces/seg")
}

// BenchmarkConcurrentStoreRead: raw pager read throughput on a
// cache-resident working set, scaling goroutines. "sharded" is the real
// Store; "seedmutex" routes every read through one global mutex,
// reproducing the seed pager's fully serialized cache-hit path so the two
// can be compared on any machine. With GOMAXPROCS > 1 the sharded store's
// g8 rate pulls ≥2× ahead of seedmutex/g8; on a single-CPU host the two
// tie (there is no parallelism to win) and the benchmark instead shows
// the sharded design costs nothing in coordination overhead.
func BenchmarkConcurrentStoreRead(b *testing.B) {
	const pages = 256
	var seedMu sync.Mutex
	impls := []struct {
		name string
		read func(st *pager.Store, id pager.PageID) ([]byte, error)
	}{
		{"sharded", func(st *pager.Store, id pager.PageID) ([]byte, error) {
			return st.Read(id)
		}},
		{"seedmutex", func(st *pager.Store, id pager.PageID) ([]byte, error) {
			seedMu.Lock()
			defer seedMu.Unlock()
			return st.Read(id)
		}},
	}
	for _, impl := range impls {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/g%d", impl.name, g), func(b *testing.B) {
				st := pager.MustOpenMem(benchPageSize(), pages)
				ids := make([]pager.PageID, pages)
				data := make([]byte, benchPageSize())
				for i := range ids {
					ids[i] = st.Alloc()
					if err := st.Write(ids[i], data); err != nil {
						b.Fatal(err)
					}
				}
				per := b.N/g + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							if _, err := impl.read(st, ids[(i*7+w*13)%pages]); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.ReportMetric(float64(per*g)/b.Elapsed().Seconds(), "reads/sec")
			})
		}
	}
}

// BenchmarkConcurrentQueryBatch: end-to-end parallel query throughput via
// segdb.QueryBatch over Synchronized(Solution 2) on a cache-resident
// store — the serving configuration, as opposed to the cold I/O-model
// runs above.
func BenchmarkConcurrentQueryBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	segs := workload.WideLevels(rng, 16000, 1600)
	st := pager.MustOpenMem(benchPageSize(), 1<<14)
	raw, err := segdb.BuildSolution2(st, segdb.Options{B: benchB}, segs)
	if err != nil {
		b.Fatal(err)
	}
	ix := segdb.Synchronized(raw)
	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 256, box, 10)
	segdb.QueryBatch(ix, queries, 1) // warm the pool: cache-resident from here
	for _, par := range []int{1, 8} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range segdb.QueryBatch(ix, queries, par) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkE14BridgeSpacing: bridge navigation cost vs the paper's d.
func BenchmarkE14BridgeSpacing(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	bds := make([]float64, 16)
	for i := range bds {
		bds[i] = float64(i+1) * 10
	}
	frags := make([]multislab.Frag, 20000)
	for k := range frags {
		i := 1 + rng.Intn(15)
		j := i + 1 + rng.Intn(16-i)
		y := float64(k)
		frags[k] = multislab.Frag{
			Seg: geom.Seg(uint64(k+1), bds[i-1]-rng.Float64()*5, y, bds[j-1]+rng.Float64()*5, y),
			I:   i, J: j,
		}
	}
	queries := make([]geom.VQuery, 512)
	for i := range queries {
		x := 10 + rng.Float64()*150
		y := rng.Float64() * 20000
		queries[i] = geom.VSeg(x, y, y+20)
	}
	for _, d := range []int{2, 8} {
		b.Run(map[int]string{2: "d2", 8: "d8"}[d], func(b *testing.B) {
			st := pager.MustOpenMem(benchPageSize(), 0)
			g, err := multislab.BuildG(st, bds, d, frags)
			if err != nil {
				b.Fatal(err)
			}
			reportIOs(b, st, queries, func(q geom.VQuery) error {
				_, err := g.Query(q, true, func(geom.Segment) {})
				return err
			})
		})
	}
}

// BenchmarkOpenDurableIndex: the start-up cost of a read-write index, as
// segdbd -wal pays it — open a 20k-segment `layers` checkpoint with an
// empty WAL, ready to serve.
func BenchmarkOpenDurableIndex(b *testing.B) {
	const n = 20000
	dir := b.TempDir()
	path, walPath := dir+"/ix.db", dir+"/ix.wal"
	segs := workload.Layers(rand.New(rand.NewSource(benchSeed)), n/100+1, 100, n)
	if err := segdb.BuildIndexFile(path, segdb.Options{B: benchB}, 1, segs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := segdb.OpenDurableIndex(path, walPath, segdb.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
