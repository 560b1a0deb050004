package core

import (
	"copier/internal/mem"
)

// ATCache is the Address Transfer Cache (§4.3): DMA needs VA→PA
// translation (~240 cycles/page walk), but copy addresses show high
// locality (recycled buffer pools, fixed I/O buffers — "the address
// recurrence in Redis surpasses 75%"), so Copier caches translations.
// The memory subsystem invalidates entries on mapping changes.
//
// Entries live in a slot array threaded on an intrusive doubly-linked
// LRU list (head = most recently used) and indexed by a map, so a
// lookup, an insert with eviction, and an invalidation are all O(1)
// and none allocates once the slot array has grown to capacity.
type ATCache struct {
	cap   int
	index map[atKey]int32
	slots []atSlot
	// head and tail are the MRU and LRU ends of the list; free heads
	// the chain of vacated slots (linked through next). -1 = none.
	head, tail, free int32

	Hits   int64
	Misses int64
	// Invalidations counts entries dropped by mapping changes.
	Invalidations int64
}

type atKey struct {
	as  *mem.AddrSpace
	vpn uint64
}

type atSlot struct {
	key        atKey
	frame      mem.Frame
	writable   bool
	prev, next int32
}

// NewATCache creates a cache bounded to capEntries entries.
func NewATCache(capEntries int) *ATCache {
	if capEntries <= 0 {
		capEntries = 4096
	}
	return &ATCache{cap: capEntries, index: make(map[atKey]int32), head: -1, tail: -1, free: -1}
}

// Attach registers invalidation callbacks on an address space. Call
// once per client address space.
func (c *ATCache) Attach(as *mem.AddrSpace) {
	as.OnMappingChange(func(vpn uint64) {
		if i, ok := c.index[atKey{as, vpn}]; ok {
			c.remove(i)
			c.Invalidations++
		}
	})
}

// Lookup returns the cached frame for (as, vpn) and whether it hit.
// Lookups for writes only hit entries recorded as writable (a cached
// read-only or CoW translation must not satisfy a write).
func (c *ATCache) Lookup(as *mem.AddrSpace, vpn uint64) (mem.Frame, bool) {
	return c.lookup(as, vpn, false)
}

// LookupW is Lookup for a write access.
func (c *ATCache) LookupW(as *mem.AddrSpace, vpn uint64) (mem.Frame, bool) {
	return c.lookup(as, vpn, true)
}

//copier:noalloc
func (c *ATCache) lookup(as *mem.AddrSpace, vpn uint64, write bool) (mem.Frame, bool) {
	i, ok := c.index[atKey{as, vpn}]
	if !ok || (write && !c.slots[i].writable) {
		c.Misses++
		return mem.NoFrame, false
	}
	c.touch(i)
	c.Hits++
	return c.slots[i].frame, true
}

// Insert records a translation, evicting the least-recently-used
// entry when full.
func (c *ATCache) Insert(as *mem.AddrSpace, vpn uint64, f mem.Frame) {
	c.InsertW(as, vpn, f, false)
}

// InsertW records a translation with its writability. A full cache
// evicts its LRU entry first, even when the key itself is cached: the
// write upgrade of a read-only entry then leaves cap−1 entries.
//
//copier:noalloc
func (c *ATCache) InsertW(as *mem.AddrSpace, vpn uint64, f mem.Frame, writable bool) {
	if len(c.index) >= c.cap {
		c.remove(c.tail)
	}
	k := atKey{as, vpn}
	if i, ok := c.index[k]; ok {
		s := &c.slots[i]
		s.frame, s.writable = f, writable
		c.touch(i)
		return
	}
	i := c.free
	if i >= 0 {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, atSlot{})
	}
	c.slots[i] = atSlot{key: k, frame: f, writable: writable}
	c.index[k] = i
	c.pushFront(i)
}

// remove drops slot i from the index and the list and frees it.
func (c *ATCache) remove(i int32) {
	delete(c.index, c.slots[i].key)
	c.unlink(i)
	c.slots[i] = atSlot{next: c.free}
	c.free = i
}

// touch makes slot i the most recently used.
func (c *ATCache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *ATCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

func (c *ATCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Len reports the number of cached translations.
func (c *ATCache) Len() int { return len(c.index) }

// HitRate returns Hits/(Hits+Misses), or 0 with no lookups.
func (c *ATCache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}
