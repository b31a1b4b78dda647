package bptree

import (
	"fmt"
	"sort"

	"segdb/internal/pager"
)

// Insert adds the pair (k, val). Exact duplicate keys are permitted and
// kept adjacent; callers that need uniqueness make keys unique via Key.ID.
func (t *Tree) Insert(k Key, val []byte) error {
	if len(val) != t.valSize {
		return fmt.Errorf("%w: got %d, want %d", ErrValSize, len(val), t.valSize)
	}
	split, sep, right, err := t.insertAt(t.root, t.height, k, val)
	if err != nil {
		return err
	}
	if split {
		newRoot := t.st.Alloc()
		page := make([]byte, t.st.PageSize())
		initNode(page, nodeInternal)
		v := view(page)
		t.setIntChild0(v, t.root)
		t.putIntEntry(v, 0, sep, right)
		v.setCount(1)
		if err := t.st.Write(newRoot, page); err != nil {
			return err
		}
		t.root = newRoot
		t.height++
	}
	t.length++
	return nil
}

func (t *Tree) insertAt(id pager.PageID, level int, k Key, val []byte) (bool, Key, pager.PageID, error) {
	page, err := t.st.ReadForUpdate(id)
	if err != nil {
		return false, Key{}, 0, err
	}
	v := view(page)
	if level == 1 {
		return t.insertLeaf(id, v, k, val)
	}
	ci := t.childIndex(v, k)
	split, sep, right, err := t.insertAt(t.intChild(v, ci), level-1, k, val)
	if err != nil || !split {
		return false, Key{}, 0, err
	}
	// Insert (sep, right) after child ci: shift entries ci..n-1 one slot.
	sz := keySize + childSize
	copy(t.intEntryBytes(v, ci+1, v.n-ci), t.intEntryBytes(v, ci, v.n-ci))
	t.putIntEntry(v, ci, sep, right)
	v.setCount(v.n + 1)
	if v.n < t.intCap {
		return false, Key{}, 0, t.st.Write(id, page)
	}
	// Split internal node: middle key moves up.
	mid := v.n / 2
	upKey := t.intKey(v, mid)
	rightID := t.st.Alloc()
	rpage := make([]byte, t.st.PageSize())
	initNode(rpage, nodeInternal)
	rv := view(rpage)
	t.setIntChild0(rv, t.intChild(v, mid+1))
	nRight := v.n - mid - 1
	copy(rv.page[headerSize+childSize:headerSize+childSize+nRight*sz],
		t.intEntryBytes(v, mid+1, nRight))
	rv.setCount(nRight)
	v.setCount(mid)
	if err := t.st.Write(id, page); err != nil {
		return false, Key{}, 0, err
	}
	if err := t.st.Write(rightID, rpage); err != nil {
		return false, Key{}, 0, err
	}
	return true, upKey, rightID, nil
}

func (t *Tree) insertLeaf(id pager.PageID, v nodeView, k Key, val []byte) (bool, Key, pager.PageID, error) {
	pos := t.leafIndex(v, k)
	sz := keySize + t.valSize
	if v.n < t.leafCap {
		copy(t.leafEntryBytes(v, pos+1, v.n-pos), t.leafEntryBytes(v, pos, v.n-pos))
		t.putLeafEntry(v, pos, k, val)
		v.setCount(v.n + 1)
		return false, Key{}, 0, t.st.Write(id, v.page)
	}
	// Split: left keeps ceil(n/2), right gets the rest; then place the
	// new entry into whichever side owns its position.
	mid := (v.n + 1) / 2
	rightID := t.st.Alloc()
	rpage := make([]byte, t.st.PageSize())
	initNode(rpage, nodeLeaf)
	rv := view(rpage)
	nRight := v.n - mid
	copy(rv.page[headerSize:headerSize+nRight*sz], t.leafEntryBytes(v, mid, nRight))
	rv.setCount(nRight)
	v.setCount(mid)

	// Chain maintenance: id <-> rightID <-> oldNext.
	oldNext := v.next()
	rv.setNext(oldNext)
	rv.setPrev(id)
	v.setNext(rightID)
	if oldNext != pager.InvalidPage {
		npage, err := t.st.ReadForUpdate(oldNext)
		if err != nil {
			return false, Key{}, 0, err
		}
		nv := view(npage)
		nv.setPrev(rightID)
		if err := t.st.Write(oldNext, npage); err != nil {
			return false, Key{}, 0, err
		}
	}

	if pos <= mid {
		// Entry belongs to the left leaf. pos == mid is safe on the left:
		// leafIndex put every entry with key ≥ k at index ≥ pos, so the
		// right leaf's first key is ≥ k.
		copy(t.leafEntryBytes(v, pos+1, v.n-pos), t.leafEntryBytes(v, pos, v.n-pos))
		t.putLeafEntry(v, pos, k, val)
		v.setCount(v.n + 1)
	} else {
		rpos := pos - mid
		copy(rv.page[headerSize+(rpos+1)*sz:headerSize+(nRight+1)*sz],
			rv.page[headerSize+rpos*sz:headerSize+nRight*sz])
		t.putLeafEntry(rv, rpos, k, val)
		rv.setCount(nRight + 1)
	}

	if err := t.st.Write(id, v.page); err != nil {
		return false, Key{}, 0, err
	}
	if err := t.st.Write(rightID, rpage); err != nil {
		return false, Key{}, 0, err
	}
	return true, t.leafKey(rv, 0), rightID, nil
}

// Delete removes one entry with exactly key k and returns whether one was
// found. Leaves are not merged or reclaimed on underflow: the structures
// above amortize space by periodic rebuilding, as the paper's update
// schemes do, so compaction happens at rebuild time.
func (t *Tree) Delete(k Key) (bool, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		page, err := t.st.Read(id)
		if err != nil {
			return false, err
		}
		v := view(page)
		id = t.intChild(v, t.childIndexLB(v, k))
	}
	// Equal keys may span leaves; walk forward while the key matches.
	for id != pager.InvalidPage {
		page, err := t.st.ReadForUpdate(id)
		if err != nil {
			return false, err
		}
		v := view(page)
		pos := t.leafIndex(v, k)
		if pos < v.n {
			got := t.leafKey(v, pos)
			if got != k {
				return false, nil
			}
			copy(t.leafEntryBytes(v, pos, v.n-pos-1), t.leafEntryBytes(v, pos+1, v.n-pos-1))
			v.setCount(v.n - 1)
			t.length--
			return true, t.st.Write(id, page)
		}
		id = v.next()
	}
	return false, nil
}

// Find returns the value of the first entry with exactly key k.
func (t *Tree) Find(k Key) ([]byte, bool, error) {
	c, err := t.SeekGE(k)
	if err != nil {
		return nil, false, err
	}
	if !c.Valid() || c.Key() != k {
		return nil, false, nil
	}
	return c.Val(), true, nil
}

// LeafFor returns the page ID of the leaf that SeekGE(k) would land on.
// The Solution-2 fractional-cascading bridges store these as direct leaf
// references (Section 4.3): following a bridge is then O(1) I/Os instead
// of a root-to-leaf search.
func (t *Tree) LeafFor(k Key) (pager.PageID, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		page, err := t.st.Read(id)
		if err != nil {
			return pager.InvalidPage, err
		}
		v := view(page)
		id = t.intChild(v, t.childIndexLB(v, k))
	}
	return id, nil
}

// Cursor iterates leaf entries in key order. It is invalidated by any
// mutation of the tree.
type Cursor struct {
	t     *Tree
	page  []byte
	id    pager.PageID
	v     nodeView
	idx   int
	valid bool
}

// SeekGE positions a cursor at the first entry with key ≥ k.
func (t *Tree) SeekGE(k Key) (*Cursor, error) {
	id, err := t.LeafFor(k)
	if err != nil {
		return nil, err
	}
	c := &Cursor{t: t}
	if err := c.load(id); err != nil {
		return nil, err
	}
	c.idx = t.leafIndex(c.v, k)
	c.valid = true
	return c, c.normalize()
}

// SeekInLeaf positions a cursor at the first entry ≥ k, starting the
// search at the given leaf. If the leaf no longer covers k (it was split
// since the reference was taken), it falls back to a root search — the
// lazy-repair behaviour the bridge navigation relies on.
func (t *Tree) SeekInLeaf(leaf pager.PageID, k Key) (*Cursor, error) {
	c := &Cursor{t: t}
	if err := c.load(leaf); err != nil || c.v.typ != nodeLeaf {
		return t.SeekGE(k)
	}
	// k must be ≥ the leaf's first key (or this is the chain head), and
	// ≤ its last key or the leaf's successor's first key is > k.
	if c.v.n == 0 {
		return t.SeekGE(k)
	}
	if k.Less(t.leafKey(c.v, 0)) && c.v.prev() != pager.InvalidPage {
		return t.SeekGE(k)
	}
	c.idx = t.leafIndex(c.v, k)
	c.valid = true
	if c.idx < c.v.n {
		return c, nil
	}
	// k is beyond this leaf. Spilling into the immediate successor is the
	// only O(1) case; anything farther means the reference is stale.
	next := c.v.next()
	if next == pager.InvalidPage {
		c.valid = false
		return c, nil
	}
	npage, err := t.st.Read(next)
	if err != nil {
		return nil, err
	}
	nv := view(npage)
	if nv.n > 0 && t.leafKey(nv, 0).Less(k) {
		return t.SeekGE(k)
	}
	c.page, c.id, c.v, c.idx = npage, next, nv, 0
	return c, c.normalize()
}

// First positions a cursor at the smallest entry.
func (t *Tree) First() (*Cursor, error) { return t.SeekGE(MinKey()) }

func (c *Cursor) load(id pager.PageID) error {
	page, err := c.t.st.Read(id)
	if err != nil {
		return err
	}
	c.page = page
	c.id = id
	c.v = view(page)
	return nil
}

// normalize advances past exhausted (or emptied) leaves.
func (c *Cursor) normalize() error {
	for c.valid && c.idx >= c.v.n {
		next := c.v.next()
		if next == pager.InvalidPage {
			c.valid = false
			return nil
		}
		if err := c.load(next); err != nil {
			return err
		}
		c.idx = 0
	}
	return nil
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current entry's key. The cursor must be valid.
func (c *Cursor) Key() Key { return c.t.leafKey(c.v, c.idx) }

// Val returns a copy of the current entry's value. The cursor must be valid.
func (c *Cursor) Val() []byte { return c.t.leafVal(c.v, c.idx) }

// Leaf returns the page ID of the leaf the cursor is on.
func (c *Cursor) Leaf() pager.PageID { return c.id }

// Next advances to the following entry, invalidating at the end.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	c.idx++
	return c.normalize()
}

// Prev steps to the preceding entry, invalidating before the start.
func (c *Cursor) Prev() error {
	if !c.valid {
		return nil
	}
	c.idx--
	for c.valid && c.idx < 0 {
		prev := c.v.prev()
		if prev == pager.InvalidPage {
			c.valid = false
			return nil
		}
		if err := c.load(prev); err != nil {
			return err
		}
		c.idx = c.v.n - 1
	}
	return nil
}

// Scan calls fn for each entry with key ≥ from, in order, until fn returns
// false or the tree is exhausted.
func (t *Tree) Scan(from Key, fn func(Key, []byte) bool) error {
	c, err := t.SeekGE(from)
	if err != nil {
		return err
	}
	for c.Valid() {
		if !fn(c.Key(), c.Val()) {
			return nil
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// Bulk builds a tree from items, which must be sorted by key; it packs
// leaves to fillFraction of capacity (clamped to [0.5, 1]) and builds the
// internal levels bottom-up — O(n) I/Os rather than N inserts.
func Bulk(st *pager.Store, valSize int, items []Item, fillFraction float64) (*Tree, error) {
	t, err := shape(st, valSize)
	if err != nil {
		return nil, err
	}
	if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].Key.Less(items[j].Key) }) {
		return nil, fmt.Errorf("bptree: Bulk input not sorted")
	}
	if fillFraction < 0.5 {
		fillFraction = 0.5
	}
	if fillFraction > 1 {
		fillFraction = 1
	}
	if len(items) == 0 {
		return New(st, valSize)
	}
	perLeaf := int(float64(t.leafCap) * fillFraction)
	if perLeaf < 1 {
		perLeaf = 1
	}

	type nodeRef struct {
		id    pager.PageID
		first Key
	}
	var level []nodeRef
	var prevLeaf pager.PageID
	for start := 0; start < len(items); start += perLeaf {
		end := start + perLeaf
		if end > len(items) {
			end = len(items)
		}
		id := st.Alloc()
		page := make([]byte, st.PageSize())
		initNode(page, nodeLeaf)
		v := view(page)
		for i, it := range items[start:end] {
			if len(it.Val) != valSize {
				return nil, fmt.Errorf("%w: item %d", ErrValSize, start+i)
			}
			t.putLeafEntry(v, i, it.Key, it.Val)
		}
		v.setCount(end - start)
		v.setPrev(prevLeaf)
		if prevLeaf != pager.InvalidPage {
			ppage, err := st.ReadForUpdate(prevLeaf)
			if err != nil {
				return nil, err
			}
			pv := view(ppage)
			pv.setNext(id)
			if err := st.Write(prevLeaf, ppage); err != nil {
				return nil, err
			}
		}
		if err := st.Write(id, page); err != nil {
			return nil, err
		}
		prevLeaf = id
		level = append(level, nodeRef{id: id, first: items[start].Key})
	}
	t.height = 1
	perInt := (t.intCap * 3) / 4
	if perInt < 2 {
		perInt = 2
	}
	for len(level) > 1 {
		var up []nodeRef
		for start := 0; start < len(level); {
			end := start + perInt
			if end > len(level) {
				end = len(level)
			}
			if end-start == 1 && len(up) > 0 {
				// Avoid a 0-key internal node: rebuild the previous group
				// extended by the lone trailing child. perInt ≤ intCap, so
				// perInt+1 children (= perInt keys) still fit.
				start -= perInt
				end = len(level)
				t.st.Free(up[len(up)-1].id)
				up = up[:len(up)-1]
			}
			id := st.Alloc()
			page := make([]byte, st.PageSize())
			initNode(page, nodeInternal)
			v := view(page)
			t.setIntChild0(v, level[start].id)
			for i := start + 1; i < end; i++ {
				t.putIntEntry(v, i-start-1, level[i].first, level[i].id)
			}
			v.setCount(end - start - 1)
			if err := st.Write(id, page); err != nil {
				return nil, err
			}
			up = append(up, nodeRef{id: id, first: level[start].first})
			start = end
		}
		level = up
		t.height++
	}
	t.root = level[0].id
	t.length = len(items)
	return t, nil
}

// Drop frees every page of the tree, leaving the handle unusable.
func (t *Tree) Drop() error {
	return t.dropRec(t.root, t.height)
}

func (t *Tree) dropRec(id pager.PageID, level int) error {
	if level > 1 {
		page, err := t.st.Read(id)
		if err != nil {
			return err
		}
		v := view(page)
		for i := 0; i <= v.n; i++ {
			if err := t.dropRec(t.intChild(v, i), level-1); err != nil {
				return err
			}
		}
	}
	t.st.Free(id)
	return nil
}
