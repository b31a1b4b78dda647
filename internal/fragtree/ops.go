package fragtree

import (
	"segdb/internal/geom"
	"segdb/internal/pager"
)

// Insert adds an entry, ordered by its fragment's crossing at the
// reference line (ties by segment ID). The fragment must span refX.
func (t *Tree) Insert(e Entry) error {
	if !geom.SpansX(e.Seg, t.refX) {
		return errSpan(e.Seg, t.refX)
	}
	split, sep, right, err := t.insertAt(t.root, t.height, e)
	if err != nil {
		return err
	}
	if split {
		newRoot := t.st.Alloc()
		page := make([]byte, t.st.PageSize())
		initNode(page, typeInternal)
		v := view(page)
		setIntChild0(v, t.root)
		putIntSep(v, 0, sep, right)
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

func errSpan(s geom.Segment, x float64) error {
	return &spanError{s: s, x: x}
}

type spanError struct {
	s geom.Segment
	x float64
}

func (e *spanError) Error() string {
	return "fragtree: " + e.s.String() + " does not span the reference line"
}

// childForInsert returns the child covering e: the count of separators ≤ e.
func (t *Tree) childForInsert(v nview, e Entry) int {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		if !t.segLess(e.Seg, intSep(v, mid)) { // sep ≤ e
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafLowerBound returns the first position whose entry is ≥ e.
func (t *Tree) leafLowerBound(v nview, e Entry) int {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		if t.segLess(leafEntry(v, mid).Seg, e.Seg) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *Tree) insertAt(id pager.PageID, level int, e Entry) (bool, geom.Segment, pager.PageID, error) {
	page, err := t.st.ReadForUpdate(id)
	if err != nil {
		return false, geom.Segment{}, 0, err
	}
	v := view(page)
	leafCap, intCap := Shape(t.st.PageSize())
	if level == 1 {
		pos := t.leafLowerBound(v, e)
		if v.n < leafCap {
			copy(leafBytes(v, pos+1, v.n-pos), leafBytes(v, pos, v.n-pos))
			putLeafEntry(v, pos, e)
			v.setCount(v.n + 1)
			return false, geom.Segment{}, 0, t.st.Write(id, page)
		}
		// Split.
		mid := (v.n + 1) / 2
		rightID := t.st.Alloc()
		rpage := make([]byte, t.st.PageSize())
		initNode(rpage, typeLeaf)
		rv := view(rpage)
		nRight := v.n - mid
		copy(leafBytes(rv, 0, nRight), leafBytes(v, mid, nRight))
		rv.setCount(nRight)
		rv.setAux(v.aux()) // inherit the bridge page until the next rebuild
		v.setCount(mid)
		oldNext := v.next()
		rv.setNext(oldNext)
		rv.setPrev(id)
		v.setNext(rightID)
		if oldNext != pager.InvalidPage {
			np, err := t.st.ReadForUpdate(oldNext)
			if err != nil {
				return false, geom.Segment{}, 0, err
			}
			nv := view(np)
			nv.setPrev(rightID)
			if err := t.st.Write(oldNext, np); err != nil {
				return false, geom.Segment{}, 0, err
			}
		}
		if pos <= mid {
			copy(leafBytes(v, pos+1, v.n-pos), leafBytes(v, pos, v.n-pos))
			putLeafEntry(v, pos, e)
			v.setCount(v.n + 1)
		} else {
			rpos := pos - mid
			copy(leafBytes(rv, rpos+1, rv.n-rpos), leafBytes(rv, rpos, rv.n-rpos))
			putLeafEntry(rv, rpos, e)
			rv.setCount(rv.n + 1)
		}
		if err := t.st.Write(id, page); err != nil {
			return false, geom.Segment{}, 0, err
		}
		if err := t.st.Write(rightID, rpage); err != nil {
			return false, geom.Segment{}, 0, err
		}
		return true, leafEntry(rv, 0).Seg, rightID, nil
	}

	ci := t.childForInsert(v, e)
	split, sep, right, err := t.insertAt(intChild(v, ci), level-1, e)
	if err != nil || !split {
		return false, geom.Segment{}, 0, err
	}
	copy(intBytes(v, ci+1, v.n-ci), intBytes(v, ci, v.n-ci))
	putIntSep(v, ci, sep, right)
	v.setCount(v.n + 1)
	if v.n < intCap {
		return false, geom.Segment{}, 0, t.st.Write(id, page)
	}
	mid := v.n / 2
	upSep := intSep(v, mid)
	rightID := t.st.Alloc()
	rpage := make([]byte, t.st.PageSize())
	initNode(rpage, typeInternal)
	rv := view(rpage)
	setIntChild0(rv, intChild(v, mid+1))
	nRight := v.n - mid - 1
	copy(intBytes(rv, 0, nRight), intBytes(v, mid+1, nRight))
	rv.setCount(nRight)
	v.setCount(mid)
	if err := t.st.Write(id, page); err != nil {
		return false, geom.Segment{}, 0, err
	}
	if err := t.st.Write(rightID, rpage); err != nil {
		return false, geom.Segment{}, 0, err
	}
	return true, upSep, rightID, nil
}

// Cursor iterates entries in vertical order.
type Cursor struct {
	t     *Tree
	page  []byte
	id    pager.PageID
	v     nview
	idx   int
	valid bool
}

// Clone returns an independent cursor at the same position.
func (c *Cursor) Clone() *Cursor {
	dup := *c
	return &dup
}

// Valid reports whether the cursor is on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Entry returns the current entry.
func (c *Cursor) Entry() Entry { return leafEntry(c.v, c.idx) }

// Leaf returns the page the cursor is on.
func (c *Cursor) Leaf() pager.PageID { return c.id }

// Aux returns the current leaf's auxiliary page reference (the bridge
// table page for this key range; see internal/multislab).
func (c *Cursor) Aux() pager.PageID { return c.v.aux() }

func (c *Cursor) load(id pager.PageID) error {
	page, err := c.t.st.Read(id)
	if err != nil {
		return err
	}
	c.page, c.id, c.v = page, id, view(page)
	return nil
}

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

// Next advances the cursor.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	c.idx++
	return c.normalize()
}

// Prev steps back, invalidating before the first entry.
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

// SeekCrossing positions a cursor at the first fragment crossing x = x0
// at or above y. Every stored fragment must span x0 (the multislab
// invariant); order at x0 then agrees with the stored order.
func (t *Tree) SeekCrossing(x0, y float64) (*Cursor, error) {
	id := t.root
	for level := t.height; level > 1; level-- {
		page, err := t.st.Read(id)
		if err != nil {
			return nil, err
		}
		v := view(page)
		lo, hi := 0, v.n
		for lo < hi {
			mid := (lo + hi) / 2
			if intSep(v, mid).YAt(x0) < y {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		id = intChild(v, lo)
	}
	c := &Cursor{t: t}
	if err := c.load(id); err != nil {
		return nil, err
	}
	c.valid = true
	c.idx = c.lowerBoundAt(x0, y)
	return c, c.normalize()
}

func (c *Cursor) lowerBoundAt(x0, y float64) int {
	lo, hi := 0, c.v.n
	for lo < hi {
		mid := (lo + hi) / 2
		if leafEntry(c.v, mid).Seg.YAt(x0) < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SeekInLeaf positions a cursor within the given leaf at the first entry
// crossing x = x0 at or above y, spilling one leaf forward at most; a
// position before the leaf is left at index 0 for the caller's walk-back.
// An unreadable or non-leaf page (stale reference) falls back to a root
// search. This is the O(1) bridge landing of Section 4.3.
func (t *Tree) SeekInLeaf(leaf pager.PageID, x0, y float64) (*Cursor, error) {
	c := &Cursor{t: t}
	if err := c.load(leaf); err != nil || c.v.typ != typeLeaf {
		return t.SeekCrossing(x0, y)
	}
	c.valid = true
	c.idx = c.lowerBoundAt(x0, y)
	if c.idx < c.v.n {
		return c, nil
	}
	next := c.v.next()
	if next == pager.InvalidPage {
		c.valid = false
		return c, nil
	}
	if err := c.load(next); err != nil {
		return nil, err
	}
	c.idx = 0
	return c, c.normalize()
}

// First positions a cursor at the lowest entry.
func (t *Tree) First() (*Cursor, error) {
	return t.SeekCrossing(t.refX, -maxKey)
}

// SetLeafAux points a leaf's auxiliary reference at a bridge-table page.
func (t *Tree) SetLeafAux(leaf, aux pager.PageID) error {
	page, err := t.st.ReadForUpdate(leaf)
	if err != nil {
		return err
	}
	v := view(page)
	v.setAux(aux)
	return t.st.Write(leaf, page)
}

// Scan calls fn for every entry in order until it returns false.
func (t *Tree) Scan(fn func(Entry) bool) error {
	c, err := t.First()
	if err != nil {
		return err
	}
	for c.Valid() {
		if !fn(c.Entry()) {
			return nil
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// Collect returns all entries in order.
func (t *Tree) Collect() ([]Entry, error) {
	out := make([]Entry, 0, t.length)
	err := t.Scan(func(e Entry) bool { out = append(out, e); return true })
	return out, err
}

// Drop frees every page.
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
			if err := t.dropRec(intChild(v, i), level-1); err != nil {
				return err
			}
		}
	}
	t.st.Free(id)
	return nil
}
