package freq

// WalkTotals is the test oracle for DetCoordinator's per-item totals: the
// walk over every site's slots that Estimate used to make on each query.
// Items whose slots sum to zero are left out, as the totals index drops
// them.
func WalkTotals(c *DetCoordinator) map[int64]int64 {
	walk := make(map[int64]int64)
	for _, site := range c.slots {
		for _, r := range site {
			walk[r.Item] += r.Count
		}
	}
	for item, t := range walk {
		if t == 0 {
			delete(walk, item)
		}
	}
	return walk
}

// DetTotals exposes the coordinator's per-item totals index.
func DetTotals(c *DetCoordinator) map[int64]int64 { return c.totals }
