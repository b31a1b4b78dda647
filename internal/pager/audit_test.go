package pager_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"segdb/internal/baseline"
	"segdb/internal/bptree"
	"segdb/internal/fragtree"
	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
	"segdb/internal/workload"
)

// auditDevice is a MemDevice that checks, before every page write, that
// the pool's buffer for the page still equals the device's bytes. Under
// write-through the two are equal between writes, so a difference means
// some caller wrote into a buffer Read handed out — the pool's own — which
// concurrent readers share.
type auditDevice struct {
	*pager.MemDevice
	st  *pager.Store
	bad []string
}

func (d *auditDevice) WritePage(idx uint32, p []byte) error {
	id := pager.PageID(idx + 1)
	if pooled := pager.PooledPage(d.st, id); pooled != nil {
		cur := make([]byte, len(pooled))
		if err := d.MemDevice.ReadPage(idx, cur); err == nil && !bytes.Equal(pooled, cur) {
			d.bad = append(d.bad, fmt.Sprintf("page %d: pooled buffer modified before its write", id))
		}
	}
	return d.MemDevice.WritePage(idx, p)
}

// check fails t if any write found a modified pool buffer, or if any
// pooled page now differs from the device.
func (d *auditDevice) check(t *testing.T) {
	t.Helper()
	for _, id := range pager.PooledPages(d.st) {
		cur := make([]byte, d.st.PageSize())
		if err := d.MemDevice.ReadPage(uint32(id-1), cur); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if !bytes.Equal(pager.PooledPage(d.st, id), cur) {
			d.bad = append(d.bad, fmt.Sprintf("page %d: pooled buffer differs from the device", id))
		}
	}
	for i, msg := range d.bad {
		if i == 5 {
			t.Errorf("... and %d more", len(d.bad)-i)
			break
		}
		t.Error(msg)
	}
}

// auditStore opens a store over an auditDevice whose pool holds every page
// the tests touch, so no buffer is evicted between a read and the write
// that follows it.
func auditStore(t *testing.T, pageSize int) (*pager.Store, *auditDevice) {
	t.Helper()
	dev := &auditDevice{MemDevice: pager.NewMemDevice(pageSize)}
	st, err := pager.Open(dev, pageSize, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	dev.st = st
	return st, dev
}

// TestPoolImmutabilityAudit runs builds, inserts, deletes and queries of
// every page-writing structure and asserts that no caller wrote into a
// buffer returned by Read: every page modification goes through
// ReadForUpdate.
func TestPoolImmutabilityAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	segs := workload.Levels(rng, 400, 200, 1.5)
	queries := workload.RandomVS(rng, 40, workload.BBox(segs), 20)

	t.Run("bptree", func(t *testing.T) {
		st, dev := auditStore(t, 256)
		items := make([]bptree.Item, 200)
		for i := range items {
			items[i] = bptree.Item{Key: bptree.Key{K: float64(2 * i), ID: uint64(i + 1)}, Val: make([]byte, 8)}
		}
		tr, err := bptree.Bulk(st, 8, items, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := tr.Insert(bptree.Key{K: float64(rng.Intn(400)), ID: uint64(1000 + i)}, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ {
			if _, err := tr.Delete(items[i].Key); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Scan(bptree.MinKey(), func(bptree.Key, []byte) bool { return true }); err != nil {
			t.Fatal(err)
		}
		dev.check(t)
	})

	t.Run("fragtree", func(t *testing.T) {
		st, dev := auditStore(t, 512)
		entries := make([]fragtree.Entry, 300)
		for i := range entries {
			entries[i] = fragtree.Entry{Seg: geom.Seg(uint64(i+1), 0, float64(4*i), 10, float64(4*i))}
		}
		tr, err := fragtree.Bulk(st, 5, entries)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			y := float64(4*rng.Intn(300) + 1 + rng.Intn(3))
			if err := tr.Insert(fragtree.Entry{Seg: geom.Seg(uint64(1000+i), 0, y, 10, y)}); err != nil {
				t.Fatal(err)
			}
		}
		c, err := tr.SeekCrossing(5, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetLeafAux(c.Leaf(), c.Leaf()); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Collect(); err != nil {
			t.Fatal(err)
		}
		dev.check(t)
	})

	t.Run("baseline.Scan", func(t *testing.T) {
		st, dev := auditStore(t, 512)
		sc, err := baseline.NewScan(st, segs[:100])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs[100:200] {
			if err := sc.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if err := sc.Query(q, func(geom.Segment) {}); err != nil {
				t.Fatal(err)
			}
		}
		dev.check(t)
	})

	t.Run("sol1", func(t *testing.T) {
		st, dev := auditStore(t, 1024)
		ix, err := sol1.Build(st, sol1.Config{B: 16}, segs[:250])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs[250:] {
			if err := ix.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range segs[:120] {
			if _, err := ix.Delete(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if _, err := ix.Query(q, func(geom.Segment) {}); err != nil {
				t.Fatal(err)
			}
		}
		dev.check(t)
	})

	t.Run("sol2", func(t *testing.T) {
		st, dev := auditStore(t, 1024)
		ix, err := sol2.Build(st, sol2.Config{B: 16}, segs[:250])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range segs[250:] {
			if err := ix.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if _, err := ix.Query(q, func(geom.Segment) {}); err != nil {
				t.Fatal(err)
			}
		}
		dev.check(t)
	})
}

// TestPoolImmutabilityAuditCatchesSharedWrite is the audit's own control:
// a read-modify-write through Read, the bug ReadForUpdate exists to
// prevent, must be reported.
func TestPoolImmutabilityAuditCatchesSharedWrite(t *testing.T) {
	st, dev := auditStore(t, 64)
	id := st.Alloc()
	if err := st.Write(id, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	view, err := st.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	view[0] = 1
	if err := st.Write(id, view); err != nil {
		t.Fatal(err)
	}
	if len(dev.bad) != 1 {
		t.Fatalf("audit reported %d violations for one shared-buffer write, want 1: %v", len(dev.bad), dev.bad)
	}
}
