package segdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segdb/internal/core"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

// The tests in this file pin how OpenDurableIndex brings up the live
// index: it loads the checkpoint's pages as they are and attaches at the
// catalog's root, instead of collecting the segments and building anew.

// writeV2Checkpoint writes segs as a plain (v2, no page checksums)
// Solution-1 file, the format of files built before checksums existed.
func writeV2Checkpoint(t *testing.T, path string, opt Options, segs []Segment) {
	t.Helper()
	st, err := OpenFileStore(path, opt.B, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateSolution1(st, opt, segs); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// openLoaded opens the durable index at path and checks that, with an
// empty log, the open wrote no page to the live store.
func openLoaded(t *testing.T, path, walPath string, emptyWAL bool) *DurableIndex {
	t.Helper()
	d, err := OpenDurableIndex(path, walPath, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Store().Stats(); emptyWAL && (st.Writes != 0 || st.Allocs != 0) {
		d.Close()
		t.Fatalf("open with an empty WAL did %d page writes and %d allocs on the live store, want 0", st.Writes, st.Allocs)
	}
	return d
}

// checkLoadedDifferential asserts that the loaded index answers a seeded
// query set exactly as brute force over want and as a fresh
// BuildSolution1 over the loaded index's own Collect.
func checkLoadedDifferential(t *testing.T, d *DurableIndex, want []Segment, seed int64) {
	t.Helper()
	if got := d.Index().Len(); got != len(want) {
		t.Fatalf("live Len = %d, want %d", got, len(want))
	}
	segs, err := d.Index().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(segs, want) {
		t.Fatalf("Collect holds %d segments, want %d", len(segs), len(want))
	}
	rebuilt, err := BuildSolution1(NewMemStore(d.opt.B, 0), d.opt, segs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	box := workload.BBox(want)
	qs := workload.RandomVS(rng, 40, box, (box.MaxY-box.MinY)/4)
	qs = append(qs, workload.RandomStabs(rng, 10, box)...)
	for _, q := range qs {
		got, err := CollectQuery(d.Index(), q)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if !sameIDs(got, FilterHits(q, want)) {
			t.Fatalf("query %v: loaded index disagrees with brute force", q)
		}
		ref, err := CollectQuery(rebuilt, q)
		if err != nil {
			t.Fatalf("query %v on the rebuilt index: %v", q, err)
		}
		if !sameIDs(got, ref) {
			t.Fatalf("query %v: loaded index disagrees with BuildSolution1 over its Collect", q)
		}
	}
}

// TestDurableOpenDifferential drives each configuration through a fresh
// checkpoint, a WAL tail over it, a Compact after mixed inserts and
// deletes, and a WAL tail over the compacted checkpoint. After every
// reopen the loaded index must answer like brute force and like a
// rebuild, and an open with an empty log must write nothing.
func TestDurableOpenDifferential(t *testing.T) {
	for _, B := range []int{4, 32} {
		for _, plain := range []bool{false, true} {
			for _, v2 := range []bool{false, true} {
				name := fmt.Sprintf("B=%d/plain=%v/v2=%v", B, plain, v2)
				t.Run(name, func(t *testing.T) {
					testDurableOpenDifferential(t, Options{B: B, PlainPST: plain}, v2)
				})
			}
		}
	}
}

func testDurableOpenDifferential(t *testing.T, opt Options, v2 bool) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	walPath := filepath.Join(dir, "ix.wal")
	all := workload.Layers(rand.New(rand.NewSource(int64(opt.B))), 8, 60, 400)
	base, extra := all[:len(all)/2], all[len(all)/2:]

	if v2 {
		writeV2Checkpoint(t, path, opt, base)
	} else if err := BuildIndexFile(path, opt, 1, base); err != nil {
		t.Fatal(err)
	}
	if _, _, version, err := ProbeFileVersion(path); err != nil || (version == catalogVersionPlain) != v2 {
		t.Fatalf("checkpoint version %d (%v), want v2=%v", version, err, v2)
	}

	state := make(map[uint64]Segment)
	for _, s := range base {
		state[s.ID] = s
	}
	want := func() []Segment {
		out := make([]Segment, 0, len(state))
		for _, s := range state {
			out = append(out, s)
		}
		return out
	}

	// Fresh checkpoint, empty log.
	d := openLoaded(t, path, walPath, true)
	if d.opt.B != opt.B || d.opt.PlainPST != opt.PlainPST {
		t.Fatalf("loaded configuration B=%d plain=%v, want B=%d plain=%v", d.opt.B, d.opt.PlainPST, opt.B, opt.PlainPST)
	}
	checkLoadedDifferential(t, d, want(), 1)

	// Mixed inserts and deletes left in the log.
	mutate := func(ins []Segment, delEvery int) {
		t.Helper()
		for _, s := range ins {
			if _, err := d.Insert(s); err != nil {
				t.Fatal(err)
			}
			state[s.ID] = s
		}
		i := 0
		for id, s := range state {
			if i++; i%delEvery == 0 {
				if found, _, err := d.Delete(s); err != nil || !found {
					t.Fatalf("delete %d: found=%v err=%v", id, found, err)
				}
				delete(state, id)
			}
		}
	}
	mutate(extra[:len(extra)/2], 3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openLoaded(t, path, walPath, false)
	checkLoadedDifferential(t, d, want(), 2)

	// Compact writes a v3 checkpoint of the mixed state and empties the
	// log; the reopen loads it with no replay.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openLoaded(t, path, walPath, true)
	checkLoadedDifferential(t, d, want(), 3)

	// A tail over the compacted checkpoint.
	mutate(extra[len(extra)/2:], 5)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openLoaded(t, path, walPath, false)
	defer d.Close()
	checkLoadedDifferential(t, d, want(), 4)
}

// TestDurableOpenRoundTrip: insert, Compact, reopen. The reopened live
// store must hold the checkpoint's pages byte for byte — the index was
// loaded, not rebuilt — and answer like the oracle.
func TestDurableOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	walPath := filepath.Join(dir, "ix.wal")
	segs := workload.Layers(rand.New(rand.NewSource(9)), 10, 50, 500)

	d, err := OpenDurableIndex(path, walPath, DurableOptions{Build: Options{B: 16}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if _, err := d.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = openLoaded(t, path, walPath, true)
	defer d.Close()
	checkLoadedDifferential(t, d, segs, 5)

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ps := d.Store().PageSize()
	phys := pager.PhysicalPageSize(ps)
	next := d.Store().NextPage()
	if int(next)-1 != len(img)/phys {
		t.Fatalf("live high-water mark %d, checkpoint has %d pages", next, len(img)/phys)
	}
	for id := pager.PageID(1); id < next; id++ {
		got, err := d.Store().Read(id)
		if err != nil {
			t.Fatalf("live page %d: %v", id, err)
		}
		off := int(id-1) * phys
		if !bytes.Equal(got, img[off:off+ps]) {
			t.Fatalf("live page %d differs from the checkpoint's", id)
		}
	}
}

// corruptCheckpoint builds a v3 checkpoint with the layout the
// corruption tests need: the index, then a slack page (allocated, never
// written — a hole of zeroes in the file), then an orphan page (written,
// valid trailer, referenced by nothing) as the last page of the file.
func corruptCheckpoint(t *testing.T, path string) (segs []Segment, root, slack, orphan pager.PageID, ps int) {
	t.Helper()
	segs = workload.Layers(rand.New(rand.NewSource(11)), 6, 40, 300)
	ps = PageSizeFor(16)
	fdev, err := pager.OpenFileDevice(path, pager.PhysicalPageSize(ps))
	if err != nil {
		t.Fatal(err)
	}
	st, err := pager.Open(pager.NewChecksumDevice(fdev, ps), ps, 16)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := CreateSolution1(st, Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	slack, orphan = st.Alloc(), st.Alloc()
	if err := st.Write(orphan, bytes.Repeat([]byte{0xab}, ps)); err != nil {
		t.Fatal(err)
	}
	if err := Save(st, ix); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return segs, ix.(core.Solution1).Index.Root(), slack, orphan, ps
}

// patchFile overwrites len(b) bytes of the file at off.
func patchFile(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOpenCorruption pins the loader's corruption rules, which
// are VerifyIndexFile's: a damaged page fails the open whether or not
// the index reaches it, all-zero and past-EOF pages are slack that reads
// as ErrCorrupt (never zeroes), and a ragged file is ErrTruncated.
func TestDurableOpenCorruption(t *testing.T) {
	// physOff is the byte offset of page id in the physical file.
	physOff := func(id pager.PageID, ps int) int64 {
		return int64(id-1) * int64(pager.PhysicalPageSize(ps))
	}
	open := func(path string) (*DurableIndex, error) {
		return OpenDurableIndex(path, path+".wal", DurableOptions{})
	}
	wantCorruptPage := func(t *testing.T, err error, id pager.PageID) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open error %v, want ErrCorrupt", err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("page %d:", id)) {
			t.Fatalf("open error %q does not name page %d", err, id)
		}
	}

	t.Run("intact", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		segs, _, slack, orphan, _ := corruptCheckpoint(t, path)
		if err := VerifyIndexFile(path); err != nil {
			t.Fatalf("fixture fails verify: %v", err)
		}
		d, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		checkLive(t, d, segs)
		if _, err := d.Store().Read(slack); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read of slack page %d: %v, want ErrCorrupt", slack, err)
		}
		if got, err := d.Store().Read(orphan); err != nil || got[0] != 0xab {
			t.Fatalf("orphan page %d not loaded: err=%v", orphan, err)
		}
		// Allocation continues above the checkpoint's high-water mark.
		if next := d.Store().NextPage(); next != orphan+1 {
			t.Fatalf("live high-water mark %d, want %d", next, orphan+1)
		}
	})

	t.Run("flip-reachable", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		_, root, _, _, ps := corruptCheckpoint(t, path)
		patchFile(t, path, physOff(root, ps)+17, []byte{0x5a})
		_, err := open(path)
		wantCorruptPage(t, err, root)
	})

	t.Run("flip-unreachable", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		_, _, _, orphan, ps := corruptCheckpoint(t, path)
		patchFile(t, path, physOff(orphan, ps)+3, []byte{0x00})
		_, err := open(path)
		wantCorruptPage(t, err, orphan)
	})

	t.Run("zero-reachable", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		segs, root, _, _, ps := corruptCheckpoint(t, path)
		patchFile(t, path, physOff(root, ps), make([]byte, pager.PhysicalPageSize(ps)))
		d, err := open(path)
		if err != nil {
			t.Fatalf("an all-zero page is slack to the loader, open failed: %v", err)
		}
		defer d.Close()
		if _, err := d.Store().Read(root); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read of zeroed root %d: %v, want ErrCorrupt", root, err)
		}
		q := matrixQueries(3, segs)[0]
		if _, err := CollectQuery(d.Index(), q); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("query through a zeroed root: %v, want ErrCorrupt", err)
		}
	})

	t.Run("truncate-mid-page", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		_, _, _, orphan, ps := corruptCheckpoint(t, path)
		if err := os.Truncate(path, physOff(orphan, ps)+100); err != nil {
			t.Fatal(err)
		}
		if _, err := open(path); !errors.Is(err, ErrTruncated) {
			t.Fatalf("open of a ragged file: %v, want ErrTruncated", err)
		}
	})

	t.Run("past-eof", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		segs, _, _, orphan, ps := corruptCheckpoint(t, path)
		if err := os.Truncate(path, physOff(orphan, ps)); err != nil {
			t.Fatal(err)
		}
		d, err := open(path)
		if err != nil {
			t.Fatalf("a page past EOF is slack to the loader, open failed: %v", err)
		}
		defer d.Close()
		checkLive(t, d, segs)
		if _, err := d.Store().Read(orphan); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("read of page %d past EOF: %v, want ErrCorrupt", orphan, err)
		}
		if next := d.Store().NextPage(); next != orphan+1 {
			t.Fatalf("live high-water mark %d, want the catalog's %d", next, orphan+1)
		}
	})
}
