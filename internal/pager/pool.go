package pager

import "container/list"

// lruPool is a least-recently-used page cache modelling the bounded
// internal memory of the I/O model. One pool serves one shard of a Store.
//
// Buffers handed to put are owned by the pool and treated as immutable
// from then on; get returns them by reference. Replacement swaps the
// buffer pointer rather than copying into it, so a slice obtained under
// the shard lock stays valid and unchanging after the lock is released —
// Store.Read hands it to callers as a read-only view.
type lruPool struct {
	capacity int
	order    *list.List // front = most recently used; values are *poolEntry
	byID     map[PageID]*list.Element
}

type poolEntry struct {
	id   PageID
	data []byte // immutable
}

func newLRUPool(capacity int) *lruPool {
	return &lruPool{
		capacity: capacity,
		order:    list.New(),
		byID:     make(map[PageID]*list.Element),
	}
}

// get returns the cached contents of id, promoting it to most recently
// used. The returned slice is an immutable pool buffer; callers must not
// write to it.
func (p *lruPool) get(id PageID) ([]byte, bool) {
	el, ok := p.byID[id]
	if !ok {
		return nil, false
	}
	p.order.MoveToFront(el)
	return el.Value.(*poolEntry).data, true
}

// put caches data as the contents of id, evicting the least recently used
// page if the pool is full. The pool takes ownership of data: the caller
// must not retain or mutate it afterwards.
func (p *lruPool) put(id PageID, data []byte) {
	if p.capacity == 0 {
		return
	}
	if el, ok := p.byID[id]; ok {
		el.Value.(*poolEntry).data = data
		p.order.MoveToFront(el)
		return
	}
	if p.order.Len() >= p.capacity {
		// Recycle the least recently used entry, so a full pool installs a
		// page without allocating.
		el := p.order.Back()
		e := el.Value.(*poolEntry)
		delete(p.byID, e.id)
		e.id, e.data = id, data
		p.order.MoveToFront(el)
		p.byID[id] = el
		return
	}
	p.byID[id] = p.order.PushFront(&poolEntry{id: id, data: data})
}

// drop removes id from the pool, if present.
func (p *lruPool) drop(id PageID) {
	if el, ok := p.byID[id]; ok {
		p.order.Remove(el)
		delete(p.byID, id)
	}
}

// reset empties the pool.
func (p *lruPool) reset() {
	p.order.Init()
	clear(p.byID)
}
