package cache

// The line-addressed operations the tests drive, built from Find and
// the slot-addressed operations: the hierarchy reaches every line
// through a way it recorded, so none of them is part of the package.

// Lookup is LookupAt at the way Find returns.
func (c *Cache) Lookup(lineAddr uint64, touch bool) *State {
	return c.LookupAt(lineAddr, c.Find(lineAddr), touch)
}

// Take is TakeAt at the way Find returns.
func (c *Cache) Take(lineAddr uint64, touch bool) (Line, bool) {
	return c.TakeAt(lineAddr, c.Find(lineAddr), touch)
}

// Invalidate is InvalidateAt at the way Find returns.
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	return c.InvalidateAt(lineAddr, c.Find(lineAddr))
}

// Insert fills lineAddr with the given state, or updates it in place
// when present: dirtiness ORs in, the I/O bit is replaced, and the hit
// updates replacement state.
func (c *Cache) Insert(lineAddr uint64, dirty, io bool, mask WayMask) (Victim, bool) {
	st := c.Lookup(lineAddr, true)
	if st == nil {
		_, v, ev := c.Fill(lineAddr, dirty, io, mask)
		return v, ev
	}
	st.Dirty = st.Dirty || dirty
	st.IO = io
	return Victim{}, false
}
