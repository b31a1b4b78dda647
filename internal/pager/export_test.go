package pager

// PooledPage returns the buffer the pool holds for id, or nil, without
// promoting it in the LRU order — the pool-immutability audit compares it
// with the device.
func PooledPage(s *Store, id PageID) []byte {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.pool.byID[id]; ok {
		return el.Value.(*poolEntry).data
	}
	return nil
}

// PooledPages lists every page the pool holds.
func PooledPages(s *Store) []PageID {
	var ids []PageID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.pool.byID {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	return ids
}
