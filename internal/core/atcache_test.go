package core

import (
	"math/rand"
	"testing"

	"copier/internal/mem"
	"copier/internal/units"
)

func TestATCacheHitMiss(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(4)
	c.Attach(as)
	if _, ok := c.Lookup(as, 5); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(as, 5, 42)
	f, ok := c.Lookup(as, 5)
	if !ok || f != 42 {
		t.Fatalf("lookup = %v %v", f, ok)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("h=%d m=%d", c.Hits, c.Misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("rate = %f", c.HitRate())
	}
}

func TestATCacheLRUEviction(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(2)
	c.Insert(as, 1, 10)
	c.Insert(as, 2, 20)
	c.Lookup(as, 1) // make vpn 2 the LRU
	c.Insert(as, 3, 30)
	if _, ok := c.Lookup(as, 2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Lookup(as, 1); !ok {
		t.Fatal("MRU entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestATCacheInvalidationOnMappingChange(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(16)
	c.Attach(as)
	va := as.MMap(mem.PageSize, mem.PermRead|mem.PermWrite, "b")
	if err := as.WriteAt(va, []byte{1}); err != nil {
		t.Fatal(err)
	}
	f, _, _ := as.Translate(va)
	c.Insert(as, va.Page(), f)
	// Remap the page: the cache must drop the entry (§4.3).
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(nf)
	if _, ok := c.Lookup(as, va.Page()); ok {
		t.Fatal("stale translation survived remap")
	}
	if c.Invalidations != 1 {
		t.Fatalf("invalidations = %d", c.Invalidations)
	}
}

func TestATCacheSeparateAddressSpaces(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	a := mem.NewAddrSpace(pm)
	b := mem.NewAddrSpace(pm)
	c := NewATCache(16)
	c.Insert(a, 7, 70)
	if _, ok := c.Lookup(b, 7); ok {
		t.Fatal("translation leaked across address spaces")
	}
}

// refATCache is the reference model for ATCache: the map-scan LRU it
// replaced. Every entry carries a unique use stamp, and a full cache
// evicts the minimum-stamp entry by scanning the whole map.
type refATCache struct {
	cap     int
	entries map[atKey]*refATEntry
	stamp   uint64

	hits, misses, invalidations int64
}

type refATEntry struct {
	frame    mem.Frame
	writable bool
	used     uint64
}

func newRefATCache(capEntries int) *refATCache {
	return &refATCache{cap: capEntries, entries: make(map[atKey]*refATEntry)}
}

func (c *refATCache) attach(as *mem.AddrSpace) {
	as.OnMappingChange(func(vpn uint64) {
		if _, ok := c.entries[atKey{as, vpn}]; ok {
			delete(c.entries, atKey{as, vpn})
			c.invalidations++
		}
	})
}

func (c *refATCache) lookup(as *mem.AddrSpace, vpn uint64, write bool) (mem.Frame, bool) {
	e, ok := c.entries[atKey{as, vpn}]
	if !ok || (write && !e.writable) {
		c.misses++
		return mem.NoFrame, false
	}
	c.stamp++
	e.used = c.stamp
	c.hits++
	return e.frame, true
}

func (c *refATCache) insertW(as *mem.AddrSpace, vpn uint64, f mem.Frame, writable bool) {
	if len(c.entries) >= c.cap {
		var victim atKey
		var oldest uint64 = ^uint64(0)
		for k, e := range c.entries {
			if e.used < oldest {
				oldest = e.used
				victim = k
			}
		}
		delete(c.entries, victim)
	}
	c.stamp++
	c.entries[atKey{as, vpn}] = &refATEntry{frame: f, writable: writable, used: c.stamp}
}

type atResident struct {
	frame    mem.Frame
	writable bool
}

// TestATCacheMatchesReference drives the slot-list cache and the
// map-scan reference through the same seeded mix of lookups, inserts
// (including the write upgrade of a read-only entry in a full cache)
// and real mapping changes over two address spaces, and compares
// every result, counter and the resident set after each step.
func TestATCacheMatchesReference(t *testing.T) {
	const steps = 100_000
	for _, capEntries := range []int{1, 2, 3, 17} {
		pm := mem.NewPhysMem(1 << 20)
		spaces := []*mem.AddrSpace{mem.NewAddrSpace(pm), mem.NewAddrSpace(pm)}
		// cap+2 pages per space: more keys than slots, so lookups
		// both hit and miss and inserts keep evicting.
		npages := capEntries + 2
		var bases []mem.VA
		c, ref := NewATCache(capEntries), newRefATCache(capEntries)
		for _, as := range spaces {
			bases = append(bases, as.MMap(units.Pages(npages).Bytes(), mem.PermRead|mem.PermWrite, "buf"))
			c.Attach(as)
			ref.attach(as)
		}
		key := func(k int) (*mem.AddrSpace, mem.VA) {
			i := k % len(spaces)
			return spaces[i], bases[i] + mem.VA(k/len(spaces))*mem.PageSize
		}
		nkeys := len(spaces) * npages
		rng := rand.New(rand.NewSource(int64(capEntries)))
		upgradesWhenFull := 0
		for step := 0; step < steps; step++ {
			as, va := key(rng.Intn(nkeys))
			vpn := va.Page()
			switch r := rng.Intn(100); {
			case r < 30:
				f, ok := c.Lookup(as, vpn)
				rf, rok := ref.lookup(as, vpn, false)
				if f != rf || ok != rok {
					t.Fatalf("cap %d step %d: Lookup = %v,%v; reference %v,%v", capEntries, step, f, ok, rf, rok)
				}
			case r < 50:
				f, ok := c.LookupW(as, vpn)
				rf, rok := ref.lookup(as, vpn, true)
				if f != rf || ok != rok {
					t.Fatalf("cap %d step %d: LookupW = %v,%v; reference %v,%v", capEntries, step, f, ok, rf, rok)
				}
			case r < 75:
				f, w := mem.Frame(rng.Intn(1000)), rng.Intn(2) == 0
				c.InsertW(as, vpn, f, w)
				ref.insertW(as, vpn, f, w)
			case r < 90:
				// The write upgrade: a cached read-only key misses
				// LookupW and is re-inserted writable. Scan from a
				// random key for one, so the choice stays seeded.
				start := rng.Intn(nkeys)
				for j := 0; j < nkeys; j++ {
					uas, uva := key((start + j) % nkeys)
					uvpn := uva.Page()
					if e, ok := ref.entries[atKey{uas, uvpn}]; !ok || e.writable {
						continue
					}
					if len(ref.entries) == capEntries {
						upgradesWhenFull++
					}
					if _, ok := c.LookupW(uas, uvpn); ok {
						t.Fatalf("cap %d step %d: LookupW hit a read-only entry", capEntries, step)
					}
					ref.lookup(uas, uvpn, true)
					f := mem.Frame(rng.Intn(1000))
					c.InsertW(uas, uvpn, f, true)
					ref.insertW(uas, uvpn, f, true)
					break
				}
			default:
				nf, err := pm.AllocFrame()
				if err != nil {
					t.Fatal(err)
				}
				if err := as.ReplacePage(va, nf); err != nil {
					t.Fatal(err)
				}
				pm.DecRef(nf)
			}
			if c.Hits != ref.hits || c.Misses != ref.misses || c.Invalidations != ref.invalidations || c.Len() != len(ref.entries) {
				t.Fatalf("cap %d step %d: hits/misses/inval/len = %d/%d/%d/%d; reference %d/%d/%d/%d",
					capEntries, step, c.Hits, c.Misses, c.Invalidations, c.Len(),
					ref.hits, ref.misses, ref.invalidations, len(ref.entries))
			}
			for k, i := range c.index {
				e, ok := ref.entries[k]
				s := c.slots[i]
				if !ok || s.key != k || (atResident{s.frame, s.writable} != atResident{e.frame, e.writable}) {
					t.Fatalf("cap %d step %d: resident vpn %#x = %+v; reference %+v (cached %v)",
						capEntries, step, k.vpn, atResident{s.frame, s.writable}, e, ok)
				}
			}
		}
		if upgradesWhenFull == 0 {
			t.Fatalf("cap %d: no write upgrade hit a full cache", capEntries)
		}
	}
}

// TestATCacheAllocFree pins the warm cache at zero allocations: an
// insert that evicts reuses the victim's slot, and a hit only relinks.
func TestATCacheAllocFree(t *testing.T) {
	as := mem.NewAddrSpace(mem.NewPhysMem(1 << 20))
	c := NewATCache(64)
	vpn := uint64(0)
	for ; vpn < 64; vpn++ {
		c.InsertW(as, vpn, mem.Frame(vpn), true)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		c.InsertW(as, vpn, mem.Frame(vpn), true)
		vpn++
	}); avg != 0 {
		t.Errorf("warm insert with eviction allocates %.2f; want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, ok := c.LookupW(as, vpn-1); !ok {
			t.Fatal("miss on the newest entry")
		}
	}); avg != 0 {
		t.Errorf("hit allocates %.2f; want 0", avg)
	}
}

// BenchmarkATCacheInsertEvict measures one InsertW of a new key into
// a full 4,096-entry cache, so every op evicts the LRU entry.
func BenchmarkATCacheInsertEvict(b *testing.B) {
	as := mem.NewAddrSpace(mem.NewPhysMem(1 << 20))
	c := NewATCache(4096)
	for vpn := uint64(0); vpn < 4096; vpn++ {
		c.InsertW(as, vpn, mem.Frame(vpn), true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := uint64(4096 + i)
		c.InsertW(as, vpn, mem.Frame(vpn), true)
	}
}
