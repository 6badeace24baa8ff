// Package cache implements the on-chip memory system of the 21264
// model: set-associative caches with LRU replacement, the eight-entry
// victim buffer, miss address files (MSHRs) with combining targets,
// and a Hierarchy that composes them with the DRAM model and the
// TLBs, accounting for bus contention between levels.
package cache

import "sync"

// Config describes one cache array.
type Config struct {
	Name       string
	SizeBytes  int
	BlockBytes int
	Assoc      int
	HitLatency int // load-to-use cycles on a hit
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative tag array with true-LRU replacement.
// It tracks timing state only; data lives in the functional memory.
//
// The slot arrays are held in groups of consecutive sets, and a
// group is copied only on its first write: a new cache aliases the
// shared all-zero image and a restored one aliases the CacheState it
// was imported from, so building and restoring a cache costs what the
// run touches rather than what the array holds.
type Cache struct {
	cfg   Config
	sets  int
	shift uint // log2 of sets per group
	// groups[i] holds sets [i<<shift, (i+1)<<shift); the last group
	// may be shorter.
	groups []group
	clock  uint64

	Stats Stats
}

// group is the slot state of a run of consecutive sets, laid out as
// the flat CacheState arrays are: way w of the group's set k is at
// index k*assoc+w.
type group struct {
	tags  []uint64
	valid []bool
	dirty []bool
	age   []uint64 // LRU stamps
	// owned reports whether the slices are this cache's own. Until
	// then they alias memory shared with other caches — the zero
	// image or an imported CacheState — which must never be written.
	owned bool
}

// groupSlots is the target number of slots per group: small enough
// that a short window copies little of a 32768-slot L2, large enough
// that the group table stays a small fraction of the arrays.
const groupSlots = 256

// zeroImage is the process-wide all-zero slot image every new cache
// aliases until it writes. It is only ever replaced by a larger one,
// never written, so a cache may keep slicing an older image.
var zeroImage struct {
	sync.Mutex
	tags, age    []uint64
	valid, dirty []bool
}

// zeroSlots returns an all-zero CacheState of n slots aliasing the
// shared image.
func zeroSlots(n int) CacheState {
	zeroImage.Lock()
	defer zeroImage.Unlock()
	if len(zeroImage.tags) < n {
		zeroImage.tags, zeroImage.age = make([]uint64, n), make([]uint64, n)
		zeroImage.valid, zeroImage.dirty = make([]bool, n), make([]bool, n)
	}
	return CacheState{
		Tags:  zeroImage.tags[:n:n],
		Valid: zeroImage.valid[:n:n],
		Dirty: zeroImage.dirty[:n:n],
		Age:   zeroImage.age[:n:n],
	}
}

// New returns an empty cache with the given geometry. It panics on a
// degenerate configuration, which is a programming error.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.BlockBytes <= 0 || cfg.Assoc <= 0 || cfg.Sets() <= 0 {
		panic("cache: invalid configuration " + cfg.Name)
	}
	c := &Cache{cfg: cfg, sets: cfg.Sets()}
	// Sets per group: the largest power of two whose slots fit in
	// groupSlots (at least one set), capped at the cache's sets.
	for 2<<c.shift <= groupSlots/cfg.Assoc && 2<<c.shift <= c.sets {
		c.shift++
	}
	c.groups = make([]group, (c.sets+1<<c.shift-1)>>c.shift)
	c.alias(zeroSlots(c.sets * cfg.Assoc))
	return c
}

// alias points every group at its part of st's arrays, unowned.
func (c *Cache) alias(st CacheState) {
	per := c.cfg.Assoc << c.shift
	for i := range c.groups {
		lo := i * per
		hi := min(lo+per, len(st.Tags))
		c.groups[i] = group{
			tags:  st.Tags[lo:hi:hi],
			valid: st.Valid[lo:hi:hi],
			dirty: st.Dirty[lo:hi:hi],
			age:   st.Age[lo:hi:hi],
		}
	}
}

// own gives g private copies of its slices before its first write,
// in one allocation per element type.
func (g *group) own() {
	n := len(g.tags)
	words, flags := make([]uint64, 2*n), make([]bool, 2*n)
	copy(words, g.tags)
	copy(words[n:], g.age)
	copy(flags, g.valid)
	copy(flags[n:], g.dirty)
	g.tags, g.age = words[:n:n], words[n:]
	g.valid, g.dirty = flags[:n:n], flags[n:]
	g.owned = true
}

// Cfg returns the cache geometry.
func (c *Cache) Cfg() Config { return c.cfg }

// Block returns the block-aligned address containing paddr.
func (c *Cache) Block(paddr uint64) uint64 {
	return paddr &^ uint64(c.cfg.BlockBytes-1)
}

// Set returns the set index for paddr.
func (c *Cache) Set(paddr uint64) int {
	return int(paddr/uint64(c.cfg.BlockBytes)) & (c.sets - 1)
}

// locate returns the group holding paddr's set and the index of the
// set's first way within it.
func (c *Cache) locate(paddr uint64) (*group, int) {
	set := c.Set(paddr)
	return &c.groups[set>>c.shift], (set & (1<<c.shift - 1)) * c.cfg.Assoc
}

// Probe looks up paddr without modifying contents, recording the
// access and updating LRU on a hit. It returns the hit way.
func (c *Cache) Probe(paddr uint64, write bool) (hit bool, way int) {
	c.Stats.Accesses++
	c.clock++
	g, base := c.locate(paddr)
	tag := c.Block(paddr)
	for w := 0; w < c.cfg.Assoc; w++ {
		s := base + w
		if g.valid[s] && g.tags[s] == tag {
			if !g.owned {
				g.own()
			}
			g.age[s] = c.clock
			if write {
				g.dirty[s] = true
			}
			c.Stats.Hits++
			return true, w
		}
	}
	c.Stats.Misses++
	return false, -1
}

// Peek reports whether paddr is resident without touching statistics
// or LRU state (used by way-prediction checks and tests).
func (c *Cache) Peek(paddr uint64) (hit bool, way int) {
	g, base := c.locate(paddr)
	tag := c.Block(paddr)
	for w := 0; w < c.cfg.Assoc; w++ {
		s := base + w
		if g.valid[s] && g.tags[s] == tag {
			return true, w
		}
	}
	return false, -1
}

// Insert fills the block containing paddr, evicting the LRU way if
// necessary. It returns the evicted block (victimOK) and whether the
// victim was dirty (needing write-back).
func (c *Cache) Insert(paddr uint64, dirty bool) (victim uint64, victimOK, victimDirty bool) {
	c.clock++
	g, base := c.locate(paddr)
	if !g.owned {
		g.own()
	}
	tag := c.Block(paddr)
	// Already resident (a combining fill): just mark.
	for w := 0; w < c.cfg.Assoc; w++ {
		s := base + w
		if g.valid[s] && g.tags[s] == tag {
			g.age[s] = c.clock
			if dirty {
				g.dirty[s] = true
			}
			return 0, false, false
		}
	}
	// Choose an invalid way, else LRU.
	victimWay, oldest := -1, c.clock+1
	for w := 0; w < c.cfg.Assoc; w++ {
		s := base + w
		if !g.valid[s] {
			victimWay = w
			break
		}
		if g.age[s] < oldest {
			oldest = g.age[s]
			victimWay = w
		}
	}
	s := base + victimWay
	if g.valid[s] {
		victim, victimOK, victimDirty = g.tags[s], true, g.dirty[s]
		c.Stats.Evictions++
		if victimDirty {
			c.Stats.Writebacks++
		}
	}
	g.tags[s] = tag
	g.valid[s] = true
	g.dirty[s] = dirty
	g.age[s] = c.clock
	return victim, victimOK, victimDirty
}

// Invalidate drops the block containing paddr if present.
func (c *Cache) Invalidate(paddr uint64) {
	g, base := c.locate(paddr)
	tag := c.Block(paddr)
	for w := 0; w < c.cfg.Assoc; w++ {
		s := base + w
		if g.valid[s] && g.tags[s] == tag {
			if !g.owned {
				g.own()
			}
			g.valid[s] = false
			return
		}
	}
}

// Reset empties the cache and clears statistics. Only the valid,
// dirty and LRU state is cleared; tags stay, behind invalid slots.
func (c *Cache) Reset() {
	for i := range c.groups {
		g := &c.groups[i]
		if !g.owned {
			g.own()
		}
		clear(g.valid)
		clear(g.dirty)
		clear(g.age)
	}
	c.clock = 0
	c.Stats = Stats{}
}

// VictimBuffer is the 21264's eight-entry fully associative buffer
// holding blocks recently evicted from the L1 data cache. A hit in
// the buffer avoids the trip to L2.
type VictimBuffer struct {
	blocks []uint64
	dirty  []bool
	valid  []bool
	next   int

	Hits   uint64
	Probes uint64
}

// NewVictimBuffer returns a buffer with the given capacity.
func NewVictimBuffer(entries int) *VictimBuffer {
	return &VictimBuffer{
		blocks: make([]uint64, entries),
		dirty:  make([]bool, entries),
		valid:  make([]bool, entries),
	}
}

// Probe looks for block and removes it on a hit (the block moves back
// into the L1). It reports the hit and the block's dirtiness.
func (v *VictimBuffer) Probe(block uint64) (hit, dirty bool) {
	v.Probes++
	for i := range v.blocks {
		if v.valid[i] && v.blocks[i] == block {
			v.valid[i] = false
			v.Hits++
			return true, v.dirty[i]
		}
	}
	return false, false
}

// Insert adds an evicted block, displacing the oldest entry (whose
// write-back, if dirty, is the caller's responsibility).
func (v *VictimBuffer) Insert(block uint64, dirty bool) (displaced uint64, displacedDirty, displacedOK bool) {
	i := v.next
	v.next = (v.next + 1) % len(v.blocks)
	if v.valid[i] {
		displaced, displacedDirty, displacedOK = v.blocks[i], v.dirty[i], true
	}
	v.blocks[i] = block
	v.dirty[i] = dirty
	v.valid[i] = true
	return displaced, displacedDirty, displacedOK
}

// MAF is a miss address file (MSHR file): it tracks outstanding
// misses, combines requests to a block already in flight, and stalls
// new misses when full (the mbox trap behavior the paper's "trap"
// feature controls lives in the timing model; the MAF itself just
// reports full).
type MAF struct {
	blocks []uint64
	fillAt []uint64

	Allocs     uint64
	Combines   uint64
	FullStalls uint64
}

// NewMAF returns a MAF with the given number of entries.
func NewMAF(entries int) *MAF {
	return &MAF{blocks: make([]uint64, entries), fillAt: make([]uint64, entries)}
}

// Lookup returns the fill completion time of an in-flight miss on
// block, combining with it. ok is false when no miss is outstanding.
func (m *MAF) Lookup(block, now uint64) (fillAt uint64, ok bool) {
	for i := range m.blocks {
		if m.fillAt[i] > now && m.blocks[i] == block {
			m.Combines++
			return m.fillAt[i], true
		}
	}
	return 0, false
}

// Allocate reserves an entry for a miss on block completing at
// fillAt. If the file is full it returns the earliest cycle an entry
// frees (stallUntil) and ok=false; the caller retries after stalling.
func (m *MAF) Allocate(block, now, fillAt uint64) (stallUntil uint64, ok bool) {
	freeIdx, earliest := -1, uint64(1)<<63
	for i := range m.blocks {
		if m.fillAt[i] <= now {
			freeIdx = i
			break
		}
		if m.fillAt[i] < earliest {
			earliest = m.fillAt[i]
		}
	}
	if freeIdx < 0 {
		m.FullStalls++
		return earliest, false
	}
	m.blocks[freeIdx] = block
	m.fillAt[freeIdx] = fillAt
	m.Allocs++
	return 0, true
}

// Full reports whether no entry is free at now, and if so when the
// earliest entry frees.
func (m *MAF) Full(now uint64) (bool, uint64) {
	earliest := uint64(1) << 63
	for i := range m.blocks {
		if m.fillAt[i] <= now {
			return false, 0
		}
		if m.fillAt[i] < earliest {
			earliest = m.fillAt[i]
		}
	}
	return true, earliest
}

// Outstanding returns the number of in-flight misses at now.
func (m *MAF) Outstanding(now uint64) int {
	n := 0
	for i := range m.blocks {
		if m.fillAt[i] > now {
			n++
		}
	}
	return n
}
