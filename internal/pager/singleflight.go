package pager

import (
	"fmt"
	"sync"
	"time"
)

// flight is one in-progress physical read of a page. The first goroutine
// to miss the pool (the leader) performs the device read; goroutines that
// miss the same page while it is in flight wait on done and share the
// result, so K concurrent cold readers of one page cost exactly one
// physical read — and Stats.Reads stays deterministic under concurrency.
//
// data and err are written by the leader before done is released and are
// immutable afterwards; waiters return data itself, the same read-only
// buffer the leader returns and the pool caches.
type flight struct {
	done sync.WaitGroup
	data []byte
	err  error
}

// readMiss is the cold path of Store.Read: the pool has no entry for id.
// It is called with sh.mu held and releases it.
//
// A Write (or Free) of id detaches the page's flight from sh.inflight, so
// a reader arriving after that write starts a fresh flight and cannot be
// handed bytes older than the write. Goroutines already waiting on the
// detached flight overlapped the write, so the older image is a
// linearizable result for them.
func (s *Store) readMiss(sh *shard, id PageID) ([]byte, error) {
	if f, ok := sh.inflight[id]; ok {
		sh.mu.Unlock()
		t0 := time.Now()
		f.done.Wait()
		sh.stats.missNanos.Add(int64(time.Since(t0)))
		return f.data, f.err
	}

	f := &flight{}
	f.done.Add(1)
	sh.inflight[id] = f
	gen := sh.gen
	epoch := sh.epochs[id]
	sh.mu.Unlock()

	buf := make([]byte, s.pageSize)
	t0 := time.Now()
	err := s.dev.ReadPage(uint32(id-1), buf)
	sh.stats.missNanos.Add(int64(time.Since(t0)))
	if err != nil {
		err = fmt.Errorf("pager: read page %d: %w", id, err)
	}

	sh.mu.Lock()
	if sh.inflight[id] == f {
		delete(sh.inflight, id)
	}
	if err == nil {
		sh.stats.reads.Add(1)
		// Version-stamped fill: only install the bytes if no write (and no
		// DropCache) landed while this reader was off-lock at the device.
		if sh.gen == gen && sh.epochs[id] == epoch {
			sh.pool.put(id, buf)
		}
	}
	sh.mu.Unlock()

	if err != nil {
		buf = nil
	}
	f.data, f.err = buf, err
	f.done.Done()
	return buf, err
}
