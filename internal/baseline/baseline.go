// Package baseline implements the comparators the paper's structures are
// measured against in EXPERIMENTS.md:
//
//   - Scan: the trivial O(n) full scan — the floor every index must beat.
//   - StabFilter: the approach available from prior work (the paper's
//     Section 1): an external interval tree over the segments'
//     x-projections answers the stabbing query at x0 (all segments
//     crossing the vertical LINE), and the y-range condition is filtered
//     afterwards. Its cost is O(log_B n + t_line) where t_line counts every
//     segment crossing the line — the quantity the paper's VS structures
//     replace with the true output t. Experiment E12 measures the gap.
package baseline

import (
	"segdb/internal/geom"
	"segdb/internal/intervaltree"
	"segdb/internal/pager"
	"segdb/internal/segrec"
)

// Scan is the full-scan index: segments stored in a chain of pages.
type Scan struct {
	st     *pager.Store
	pages  []pager.PageID
	perCap int
	length int
}

// NewScan stores the segments in packed pages.
func NewScan(st *pager.Store, segs []geom.Segment) (*Scan, error) {
	s := &Scan{st: st, perCap: (st.PageSize() - 4) / segrec.Size, length: len(segs)}
	for start := 0; start < len(segs); start += s.perCap {
		end := start + s.perCap
		if end > len(segs) {
			end = len(segs)
		}
		page := make([]byte, st.PageSize())
		c := pager.NewBuf(page)
		c.PutU16(uint16(end - start))
		c.Skip(2)
		for _, sg := range segs[start:end] {
			segrec.Put(c, sg)
		}
		id := st.Alloc()
		if err := st.Write(id, page); err != nil {
			return nil, err
		}
		s.pages = append(s.pages, id)
	}
	return s, nil
}

// Len returns the number of stored segments.
func (s *Scan) Len() int { return s.length }

// Query reports every stored segment intersecting q by reading everything.
func (s *Scan) Query(q geom.VQuery, emit func(geom.Segment)) error {
	for _, id := range s.pages {
		page, err := s.st.Read(id)
		if err != nil {
			return err
		}
		c := pager.NewBuf(page)
		count := int(c.U16())
		c.Skip(2)
		for i := 0; i < count; i++ {
			sg := segrec.Get(c)
			if q.Hits(sg) {
				emit(sg)
			}
		}
	}
	return nil
}

// Collect returns every stored segment.
func (s *Scan) Collect() ([]geom.Segment, error) {
	out := make([]geom.Segment, 0, s.length)
	for _, id := range s.pages {
		page, err := s.st.Read(id)
		if err != nil {
			return nil, err
		}
		c := pager.NewBuf(page)
		count := int(c.U16())
		c.Skip(2)
		for i := 0; i < count; i++ {
			out = append(out, segrec.Get(c))
		}
	}
	return out, nil
}

// Drop frees all pages.
func (s *Scan) Drop() error {
	for _, id := range s.pages {
		s.st.Free(id)
	}
	s.pages = nil
	s.length = 0
	return nil
}

// Insert appends a segment (last page rewritten or a new page).
func (s *Scan) Insert(sg geom.Segment) error {
	last := s.length % s.perCap
	if len(s.pages) == 0 || last == 0 {
		page := make([]byte, s.st.PageSize())
		c := pager.NewBuf(page)
		c.PutU16(1)
		c.Skip(2)
		segrec.Put(c, sg)
		id := s.st.Alloc()
		if err := s.st.Write(id, page); err != nil {
			return err
		}
		s.pages = append(s.pages, id)
		s.length++
		return nil
	}
	id := s.pages[len(s.pages)-1]
	page, err := s.st.ReadForUpdate(id)
	if err != nil {
		return err
	}
	c := pager.NewBuf(page)
	c.PutU16(uint16(last + 1))
	segrec.PutAt(page, 4+last*segrec.Size, sg)
	if err := s.st.Write(id, page); err != nil {
		return err
	}
	s.length++
	return nil
}

// StabFilter answers VS queries by 1-D stabbing on x-projections plus a
// y filter.
type StabFilter struct {
	tree *intervaltree.Tree
}

// NewStabFilter builds the x-projection interval tree. B sizes the tree
// as in the other structures.
func NewStabFilter(st *pager.Store, b int, segs []geom.Segment) (*StabFilter, error) {
	items := make([]intervaltree.Item, len(segs))
	for i, s := range segs {
		items[i] = intervaltree.Item{Lo: s.MinX(), Hi: s.MaxX(), Seg: s}
	}
	t, err := intervaltree.Build(st, intervaltree.DefaultConfig(b), items)
	if err != nil {
		return nil, err
	}
	return &StabFilter{tree: t}, nil
}

// Len returns the number of stored segments.
func (f *StabFilter) Len() int { return f.tree.Len() }

// Query stabs at q.X and filters by the y range. Every segment crossing
// the vertical line is touched, whether or not it meets the query's y
// range — the structural handicap experiment E12 quantifies.
func (f *StabFilter) Query(q geom.VQuery, emit func(geom.Segment)) (touched int, err error) {
	err = f.tree.Stab(q.X, func(it intervaltree.Item) {
		touched++
		if q.Hits(it.Seg) {
			emit(it.Seg)
		}
	})
	return touched, err
}

// Insert adds a segment.
func (f *StabFilter) Insert(s geom.Segment) error {
	return f.tree.Insert(intervaltree.Item{Lo: s.MinX(), Hi: s.MaxX(), Seg: s})
}

// Delete removes a segment.
func (f *StabFilter) Delete(s geom.Segment) (bool, error) {
	return f.tree.Delete(intervaltree.Item{Lo: s.MinX(), Hi: s.MaxX(), Seg: s})
}
