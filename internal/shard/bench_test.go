package shard

import (
	"math/rand"
	"testing"

	"segdb"
	"segdb/internal/workload"
)

// BenchmarkShardOpen: the start-up cost of segdbd -shards=4 — open a
// 4-shard store of 20k `layers` segments with empty WALs, spanner lists
// included.
func BenchmarkShardOpen(b *testing.B) {
	const n = 20000
	dir := b.TempDir()
	segs := workload.Layers(rand.New(rand.NewSource(1998)), n/100+1, 100, n)
	cfg := Config{Shards: 4, Durable: segdb.DurableOptions{Build: segdb.Options{B: 32}}}
	s, err := Create(dir, cfg, segs)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
