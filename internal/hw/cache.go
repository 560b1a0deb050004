package hw

import "copier/internal/units"

// Cache is a set-associative LRU cache model used for the §6.3.5
// microarchitectural study: large CPU copies through a core's cache
// evict the application's hot data, raising its CPI; Copier performs
// copies on a dedicated core, leaving the app's cache warm.
//
// The model tracks tags only (no data); Stream models a bulk copy
// passing through the cache, and Touch models application accesses to
// its working set.
type Cache struct {
	sets     int
	ways     int
	lineSize int
	// tags[set] holds up to `ways` line tags in LRU order (front =
	// most recently used).
	tags [][]uint64

	Hits   int64
	Misses int64
}

// NewCache builds a cache of the given total size in bytes with the
// given associativity and 64-byte lines.
func NewCache(totalSize, ways int) *Cache {
	const line = 64
	sets := totalSize / (ways * line)
	if sets < 1 {
		sets = 1
	}
	c := &Cache{sets: sets, ways: ways, lineSize: line}
	c.tags = make([][]uint64, sets)
	return c
}

// Touch accesses n bytes starting at addr, updating hit/miss counts.
func (c *Cache) Touch(addr uint64, n units.Bytes) {
	first := addr / uint64(c.lineSize)
	last := (addr + uint64(n) - 1) / uint64(c.lineSize)
	for ln := first; ln <= last; ln++ {
		c.access(ln)
	}
}

func (c *Cache) access(line uint64) {
	set := int(line % uint64(c.sets))
	ws := c.tags[set]
	for i, tag := range ws {
		if tag == line {
			// Hit: move to MRU position.
			copy(ws[1:i+1], ws[:i])
			ws[0] = line
			c.Hits++
			return
		}
	}
	c.Misses++
	if len(ws) < c.ways {
		ws = append(ws, 0)
	}
	copy(ws[1:], ws)
	ws[0] = line
	c.tags[set] = ws
}

// Stream models a bulk copy of n bytes flowing through the cache: both
// the source reads and destination writes allocate lines, evicting
// older content. The stream's own lines are not re-used, so it is pure
// pollution. Addresses are synthetic and never collide with Touch
// addresses (top bit set).
func (c *Cache) Stream(n int64) {
	const streamBase = uint64(1) << 63
	lines := (n + int64(c.lineSize) - 1) / int64(c.lineSize)
	// src + dst both pass through.
	for i := int64(0); i < 2*lines; i++ {
		c.access(streamBase + uint64(i))
	}
}

// ResetStats clears the hit/miss counters without flushing contents.
func (c *Cache) ResetStats() { c.Hits, c.Misses = 0, 0 }

// MissRate returns Misses/(Hits+Misses), or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}
