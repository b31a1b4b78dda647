package pager

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func fill(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestReadAfterWrite(t *testing.T) {
	s := MustOpenMem(128, 4)
	id := s.Alloc()
	want := fill(128, 7)
	if err := s.Write(id, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := s.Read(id)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read returned different bytes than written")
	}
}

func TestReadForUpdateReturnsOwnedCopy(t *testing.T) {
	s := MustOpenMem(64, 4)
	id := s.Alloc()
	want := fill(64, 1)
	if err := s.Write(id, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for _, path := range []string{"hit", "miss"} {
		if path == "miss" {
			s.DropCache()
		}
		a, err := s.ReadForUpdate(id)
		if err != nil {
			t.Fatalf("%s: ReadForUpdate: %v", path, err)
		}
		b, _ := s.ReadForUpdate(id)
		a[0] = ^a[0]
		if a[0] == b[0] {
			t.Fatalf("%s: ReadForUpdate results alias each other", path)
		}
		if v, _ := s.Read(id); !bytes.Equal(v, want) {
			t.Fatalf("%s: mutating a ReadForUpdate result changed the pooled page", path)
		}
	}
}

// TestReadViewOutlivesWrite pins the view contract: a Read result is the
// page as of the read and never changes, even after the page is rewritten.
func TestReadViewOutlivesWrite(t *testing.T) {
	s := MustOpenMem(64, 4)
	id := s.Alloc()
	if err := s.Write(id, fill(64, 1)); err != nil {
		t.Fatal(err)
	}
	old, _ := s.Read(id)
	if err := s.Write(id, fill(64, 9)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, fill(64, 1)) {
		t.Fatal("a Write changed the bytes of an earlier Read view")
	}
	if cur, _ := s.Read(id); !bytes.Equal(cur, fill(64, 9)) {
		t.Fatal("Read after Write did not return the new bytes")
	}
}

// TestReadAllocations pins the cost of the view contract: a pool hit
// allocates nothing, and a miss allocates exactly one page buffer (plus
// its small singleflight record). Pages alternate through a one-page pool,
// so every miss also evicts — eviction recycles the pool entry.
func TestReadAllocations(t *testing.T) {
	const size = 4096
	s := MustOpenMem(size, 1)
	a, b := s.Alloc(), s.Alloc()
	for _, id := range []PageID{a, b} {
		if err := s.Write(id, fill(size, byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Read(b) }); n != 0 {
		t.Errorf("pool hit: %v allocs/read, want 0", n)
	}
	next := a
	miss := func() {
		if _, err := s.Read(next); err != nil {
			t.Fatal(err)
		}
		next = a + b - next
	}
	s.ResetStats()
	if n := testing.AllocsPerRun(100, miss); n != 2 {
		t.Errorf("pool miss: %v allocs/read, want 2 (page buffer + flight)", n)
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("miss loop hit the pool %d times", st.CacheHits)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		miss()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per < size || per >= 2*size {
		t.Errorf("pool miss: %d bytes/read, want one %d-byte page buffer", per, size)
	}
}

func BenchmarkStoreRead(b *testing.B) {
	const size = 4096
	s := MustOpenMem(size, 1)
	p, q := s.Alloc(), s.Alloc()
	for _, id := range []PageID{p, q} {
		if err := s.Write(id, fill(size, byte(id))); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Read(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		ids := [2]PageID{p, q} // alternate through the one-page pool
		for i := 0; i < b.N; i++ {
			if _, err := s.Read(ids[i&1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestWriteRejectsWrongSize(t *testing.T) {
	s := MustOpenMem(64, 0)
	id := s.Alloc()
	if err := s.Write(id, make([]byte, 63)); err == nil {
		t.Fatal("Write accepted a short buffer")
	}
}

func TestInvalidPageOps(t *testing.T) {
	s := MustOpenMem(64, 0)
	if _, err := s.Read(InvalidPage); err == nil {
		t.Error("Read(InvalidPage) succeeded")
	}
	if err := s.Write(InvalidPage, make([]byte, 64)); err == nil {
		t.Error("Write(InvalidPage) succeeded")
	}
	s.Free(InvalidPage) // must be a no-op
	if got := s.PagesInUse(); got != 0 {
		t.Errorf("PagesInUse = %d after freeing InvalidPage, want 0", got)
	}
}

func TestAllocFreeReuse(t *testing.T) {
	s := MustOpenMem(64, 0)
	a := s.Alloc()
	b := s.Alloc()
	if a == b {
		t.Fatalf("Alloc returned duplicate id %d", a)
	}
	if got := s.PagesInUse(); got != 2 {
		t.Fatalf("PagesInUse = %d, want 2", got)
	}
	s.Free(a)
	if got := s.PagesInUse(); got != 1 {
		t.Fatalf("PagesInUse after Free = %d, want 1", got)
	}
	c := s.Alloc()
	if c != a {
		t.Errorf("Alloc after Free = %d, want reused %d", c, a)
	}
}

func TestIOAccountingColdAndWarm(t *testing.T) {
	s := MustOpenMem(64, 8)
	id := s.Alloc()
	if err := s.Write(id, fill(64, 3)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()

	// Warm read: the write-through left the page in the pool.
	if _, err := s.Read(id); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 0 || st.CacheHits != 1 {
		t.Fatalf("warm read stats = %+v, want 0 reads, 1 hit", st)
	}

	s.DropCache()
	s.ResetStats()
	if _, err := s.Read(id); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 1 || st.CacheHits != 0 {
		t.Fatalf("cold read stats = %+v, want 1 read, 0 hits", st)
	}
}

func TestZeroPoolCountsEveryRead(t *testing.T) {
	s := MustOpenMem(64, 0)
	id := s.Alloc()
	if err := s.Write(id, fill(64, 9)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	for i := 0; i < 5; i++ {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Reads != 5 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 5 physical reads", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// A 2-page pool splits into two shards of one page each: odd page IDs
	// share one shard, even IDs the other, and eviction is per shard.
	s := MustOpenMem(64, 2)
	if got := s.Shards(); got != 2 {
		t.Fatalf("Shards() = %d for a 2-page pool, want 2", got)
	}
	ids := make([]PageID, 3)
	for i := range ids {
		ids[i] = s.Alloc()
		if err := s.Write(ids[i], fill(64, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// ids are 1,2,3: writing page 3 evicted page 1 from the odd shard;
	// page 2 sits alone in the even shard.
	s.ResetStats()
	if _, err := s.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 1 {
		t.Fatalf("read of evicted page: stats = %+v, want 1 physical read", st)
	}
	// The even shard was undisturbed by the odd shard's traffic.
	s.ResetStats()
	if _, err := s.Read(ids[1]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("read of cached page: stats = %+v, want 1 hit", st)
	}
	// Re-reading page 1 above refilled the odd shard, evicting page 3.
	s.ResetStats()
	if _, err := s.Read(ids[2]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Reads != 1 {
		t.Fatalf("read of shard-evicted page: stats = %+v, want 1 physical read", st)
	}
}

func TestStatsByShardSumsToTotals(t *testing.T) {
	s := MustOpenMem(64, 32)
	var ids []PageID
	for i := 0; i < 40; i++ {
		id := s.Alloc()
		ids = append(ids, id)
		if err := s.Write(id, fill(64, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	s.DropCache()
	for _, id := range ids[:10] {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	s.Free(ids[0])

	var sum Stats
	for _, st := range s.StatsByShard() {
		sum = sum.Add(st)
	}
	if total := s.Stats(); sum != total {
		t.Fatalf("StatsByShard sums to %+v, Stats() = %+v", sum, total)
	}
	if got := len(s.StatsByShard()); got != s.Shards() {
		t.Fatalf("len(StatsByShard) = %d, want %d", got, s.Shards())
	}
}

func TestHitRatio(t *testing.T) {
	if got := (Stats{}).HitRatio(); got != 0 {
		t.Fatalf("empty HitRatio = %v, want 0", got)
	}
	if got := (Stats{Reads: 1, CacheHits: 3}).HitRatio(); got != 0.75 {
		t.Fatalf("HitRatio = %v, want 0.75", got)
	}
}

func TestShardCountFor(t *testing.T) {
	cases := []struct{ pool, want int }{
		{0, maxShards}, {1, 1}, {2, 2}, {3, 2}, {4, 4}, {8, 8},
		{15, 8}, {16, 16}, {100, 16},
	}
	for _, c := range cases {
		if got := shardCountFor(c.pool); got != c.want {
			t.Errorf("shardCountFor(%d) = %d, want %d", c.pool, got, c.want)
		}
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, CacheHits: 3, Allocs: 2, Frees: 1}
	b := Stats{Reads: 4, Writes: 2, CacheHits: 1, Allocs: 1, Frees: 0}
	d := a.Sub(b)
	want := Stats{Reads: 6, Writes: 3, CacheHits: 2, Allocs: 1, Frees: 1}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	if d.IOs() != 9 {
		t.Fatalf("IOs = %d, want 9", d.IOs())
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	dev, err := OpenFileDevice(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dev, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const pages = 17
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = s.Alloc()
		if err := s.Write(ids[i], fill(256, byte(i*13))); err != nil {
			t.Fatal(err)
		}
	}
	// Write pages out of order as well to exercise sparse offsets.
	if err := s.Write(ids[3], fill(256, 200)); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		got, err := s.Read(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		want := fill(256, byte(i*13))
		if i == 3 {
			want = fill(256, 200)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d round-trip mismatch", i)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("backing file missing: %v", err)
	}
}

// TestMemDeviceFrom: a bulk-loaded device serves the adopted pages
// without copying them in, reads of holes and of pages past the end are
// ErrCorrupt rather than zeroes, and a page of the wrong size is refused.
func TestMemDeviceFrom(t *testing.T) {
	const size = 32
	p0, p2 := fill(size, 1), fill(size, 9)
	dev, err := NewMemDeviceFrom(size, [][]byte{p0, nil, p2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dev, size, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.Reserve(4)
	if got, err := st.Read(3); err != nil || !bytes.Equal(got, fill(size, 9)) {
		t.Fatalf("Read(3) = %v, %v; want the adopted page", got, err)
	}
	for _, id := range []PageID{2, 4} {
		if _, err := st.Read(id); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read(%d) of a page never written: %v, want ErrCorrupt", id, err)
		}
	}
	// The device owns the adopted slices: a write lands in them.
	if err := st.Write(1, fill(size, 5)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p0, fill(size, 5)) {
		t.Fatal("write to an adopted page did not land in the adopted slice")
	}
	if st := st.Stats(); st.Writes != 1 || st.Allocs != 0 {
		t.Fatalf("stats after load + one write: %v", st)
	}
	if _, err := NewMemDeviceFrom(size, [][]byte{make([]byte, size-1)}); !errors.Is(err, ErrPageSize) {
		t.Fatalf("short page: %v, want ErrPageSize", err)
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(NewMemDevice(0), 0, 0); err == nil {
		t.Error("Open accepted page size 0")
	}
	if _, err := Open(NewMemDevice(64), 64, -1); err == nil {
		t.Error("Open accepted negative pool size")
	}
}

// TestQuickPoolConsistency drives a random op sequence against the pool and
// checks Read always returns the last written contents, at every pool size.
func TestQuickPoolConsistency(t *testing.T) {
	f := func(seed int64, poolSize uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := MustOpenMem(32, int(poolSize%9))
		shadow := map[PageID][]byte{}
		var ids []PageID
		for op := 0; op < 200; op++ {
			switch {
			case len(ids) == 0 || rng.Intn(4) == 0:
				ids = append(ids, s.Alloc())
			case rng.Intn(2) == 0:
				id := ids[rng.Intn(len(ids))]
				data := fill(32, byte(rng.Intn(256)))
				if err := s.Write(id, data); err != nil {
					return false
				}
				shadow[id] = data
			default:
				id := ids[rng.Intn(len(ids))]
				want, ok := shadow[id]
				if !ok {
					continue // never written
				}
				got, err := s.Read(id)
				if err != nil || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBufRoundTrip(t *testing.T) {
	page := make([]byte, 64)
	w := NewBuf(page)
	w.PutU64(0xdeadbeefcafef00d)
	w.PutF64(-1234.5678)
	w.PutF64(math.Inf(1))
	w.PutF64(math.Inf(-1))
	w.PutU32(42)
	w.PutU16(7)
	w.PutU8(255)
	w.PutPage(PageID(99))

	r := NewBuf(page)
	if got := r.U64(); got != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %x", got)
	}
	if got := r.F64(); got != -1234.5678 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, 1) {
		t.Errorf("F64 = %v, want +Inf", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := r.U32(); got != 42 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U16(); got != 7 {
		t.Errorf("U16 = %d", got)
	}
	if got := r.U8(); got != 255 {
		t.Errorf("U8 = %d", got)
	}
	if got := r.Page(); got != PageID(99) {
		t.Errorf("Page = %d", got)
	}
}

func TestBufSeekSkip(t *testing.T) {
	page := make([]byte, 32)
	c := NewBuf(page)
	c.PutU64(1)
	c.Seek(16).PutU64(2)
	if c.Pos() != 24 {
		t.Fatalf("Pos = %d, want 24", c.Pos())
	}
	r := NewBuf(page).Skip(16)
	if got := r.U64(); got != 2 {
		t.Fatalf("value at 16 = %d, want 2", got)
	}
}

func TestBufOverrunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overrun did not panic")
		}
	}()
	NewBuf(make([]byte, 4)).PutU64(1)
}

func TestBufSeekOutsidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad seek did not panic")
		}
	}()
	NewBuf(make([]byte, 4)).Seek(5)
}
