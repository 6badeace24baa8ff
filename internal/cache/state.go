package cache

import (
	"fmt"

	"repro/internal/vm"
)

// Checkpoint state export/import for the warmed memory system.
//
// What is serialized is exactly the state functional warming
// (WarmInst/WarmData) mutates: cache arrays with their LRU clocks and
// statistics, the victim buffer, the TLBs, and the mapping tables.
// Timing-only machinery — MAFs, the L2 bus, DRAM banks, the prefetch
// counter, the last-translation shortcut — is deliberately excluded:
// warming never touches it, so at a checkpoint position both a cold
// warmed-forward run and a restored run hold it in its reset state,
// and serializing it would only invite skew.

// CacheState is the full serializable state of one cache array.
type CacheState struct {
	Tags  []uint64
	Valid []bool
	Dirty []bool
	Age   []uint64
	Clock uint64
	Stats Stats
}

// Export snapshots the cache array into flat arrays of its own.
func (c *Cache) Export() CacheState {
	n := c.sets * c.cfg.Assoc
	st := CacheState{
		Tags:  make([]uint64, 0, n),
		Valid: make([]bool, 0, n),
		Dirty: make([]bool, 0, n),
		Age:   make([]uint64, 0, n),
		Clock: c.clock,
		Stats: c.Stats,
	}
	for _, g := range c.groups {
		st.Tags = append(st.Tags, g.tags...)
		st.Valid = append(st.Valid, g.valid...)
		st.Dirty = append(st.Dirty, g.dirty...)
		st.Age = append(st.Age, g.age...)
	}
	return st
}

// Import restores a snapshot taken from a cache of the same geometry.
// The cache aliases st's arrays and copies a group of sets only on
// its first write to it, so st must not be modified afterwards; st
// itself is never written.
func (c *Cache) Import(st CacheState) error {
	n := c.sets * c.cfg.Assoc
	if len(st.Tags) != n || len(st.Valid) != n || len(st.Dirty) != n || len(st.Age) != n {
		return fmt.Errorf("cache: %s state has %d slots, cache has %d", c.cfg.Name, len(st.Tags), n)
	}
	c.alias(st)
	c.clock = st.Clock
	c.Stats = st.Stats
	return nil
}

// VBState is the full serializable state of a victim buffer.
type VBState struct {
	Blocks []uint64
	Dirty  []bool
	Valid  []bool
	Next   int
	Hits   uint64
	Probes uint64
}

// Export snapshots the victim buffer.
func (v *VictimBuffer) Export() VBState {
	return VBState{
		Blocks: append([]uint64(nil), v.blocks...),
		Dirty:  append([]bool(nil), v.dirty...),
		Valid:  append([]bool(nil), v.valid...),
		Next:   v.next,
		Hits:   v.Hits,
		Probes: v.Probes,
	}
}

// Import restores a snapshot taken from a buffer of the same size.
func (v *VictimBuffer) Import(st VBState) error {
	if len(st.Blocks) != len(v.blocks) {
		return fmt.Errorf("cache: victim-buffer state has %d entries, buffer has %d", len(st.Blocks), len(v.blocks))
	}
	if st.Next < 0 || st.Next >= len(v.blocks) {
		return fmt.Errorf("cache: victim-buffer rotation index %d out of range [0,%d)", st.Next, len(v.blocks))
	}
	copy(v.blocks, st.Blocks)
	copy(v.dirty, st.Dirty)
	copy(v.valid, st.Valid)
	v.next = st.Next
	v.Hits, v.Probes = st.Hits, st.Probes
	return nil
}

// HierarchyState is the warmed state of a full memory system.
type HierarchyState struct {
	L1I, L1D, L2 CacheState
	VB           *VBState // nil when the hierarchy has no victim buffer
	ITLB, DTLB   vm.TLBState
	Mapper       vm.MapperState
}

// ExportWarm snapshots every structure functional warming mutates.
func (h *Hierarchy) ExportWarm() (HierarchyState, error) {
	ms, err := vm.ExportMapper(h.Mapper)
	if err != nil {
		return HierarchyState{}, err
	}
	st := HierarchyState{
		L1I:    h.L1I.Export(),
		L1D:    h.L1D.Export(),
		L2:     h.L2.Export(),
		ITLB:   h.ITLB.Export(),
		DTLB:   h.DTLB.Export(),
		Mapper: ms,
	}
	if h.VB != nil {
		vb := h.VB.Export()
		st.VB = &vb
	}
	return st, nil
}

// ImportWarm restores warmed state into a freshly built hierarchy of
// the same geometry. The caches alias st's arrays (see Cache.Import),
// so st must not be modified afterwards.
func (h *Hierarchy) ImportWarm(st HierarchyState) error {
	if err := h.L1I.Import(st.L1I); err != nil {
		return err
	}
	if err := h.L1D.Import(st.L1D); err != nil {
		return err
	}
	if err := h.L2.Import(st.L2); err != nil {
		return err
	}
	switch {
	case h.VB == nil && st.VB != nil:
		return fmt.Errorf("cache: state has a victim buffer, hierarchy does not")
	case h.VB != nil && st.VB == nil:
		return fmt.Errorf("cache: hierarchy has a victim buffer, state does not")
	case h.VB != nil:
		if err := h.VB.Import(*st.VB); err != nil {
			return err
		}
	}
	if err := h.ITLB.Import(st.ITLB); err != nil {
		return fmt.Errorf("ITLB: %w", err)
	}
	if err := h.DTLB.Import(st.DTLB); err != nil {
		return fmt.Errorf("DTLB: %w", err)
	}
	return vm.ImportMapper(h.Mapper, st.Mapper)
}
