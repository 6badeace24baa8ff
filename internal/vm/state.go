package vm

import (
	"fmt"
	"sort"
)

// Checkpoint state export/import. A restored memory system must be
// indistinguishable from one that reached the same point live: page
// images, TLB contents (including replacement position and the
// last-page shortcut) and mapping tables all round-trip exactly, so a
// restored run's hit/miss accounting is byte-identical to a cold
// run's. Mapper derived state (SeqMapper.next, ColorMapper.nextIn,
// HashMapper.used) is reconstructed from the mapping pairs rather
// than serialized: allocation is dense, so the pairs determine it.

// PageImage is one touched page of a memory snapshot.
type PageImage struct {
	VPage uint64
	Data  [PageSize]byte
}

// ExportPages snapshots the memory image as page copies sorted by
// virtual page number (a canonical order, so identical memories
// serialize identically).
func (m *Memory) ExportPages() []PageImage {
	if len(m.pages) == 0 {
		return nil
	}
	out := make([]PageImage, 0, len(m.pages))
	for vp, f := range m.pages {
		out = append(out, PageImage{VPage: vp, Data: *f.data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VPage < out[j].VPage })
	return out
}

// ImportPages replaces the memory image with the given pages. The
// pages are aliased, not copied: the first store to each copies it, so
// m never writes to pages, but pages must not change while m is in use.
func (m *Memory) ImportPages(pages []PageImage) {
	m.pages = make(map[uint64]frame, len(pages))
	for i := range pages {
		m.pages[pages[i].VPage] = frame{data: &pages[i].Data, shared: true}
	}
}

// TLBState is the full serializable state of a TLB.
type TLBState struct {
	Entries []uint64
	Valid   []bool
	Next    int
	Last    uint64
	LastOK  bool
	Hits    uint64
	Misses  uint64
}

// Export snapshots the TLB.
func (t *TLB) Export() TLBState {
	return TLBState{
		Entries: append([]uint64(nil), t.entries...),
		Valid:   append([]bool(nil), t.valid...),
		Next:    t.next,
		Last:    t.last,
		LastOK:  t.lastOK,
		Hits:    t.Hits,
		Misses:  t.Misses,
	}
}

// Import restores a snapshot taken from a TLB of the same geometry.
func (t *TLB) Import(st TLBState) error {
	if len(st.Entries) != len(t.entries) || len(st.Valid) != len(t.valid) {
		return fmt.Errorf("vm: TLB state has %d entries, TLB has %d", len(st.Entries), len(t.entries))
	}
	if st.Next < 0 || st.Next >= len(t.entries) {
		return fmt.Errorf("vm: TLB replacement index %d out of range [0,%d)", st.Next, len(t.entries))
	}
	copy(t.entries, st.Entries)
	copy(t.valid, st.Valid)
	t.next = st.Next
	t.last, t.lastOK = st.Last, st.LastOK
	t.Hits, t.Misses = st.Hits, st.Misses
	return nil
}

// MapPair is one established virtual-to-physical page mapping.
type MapPair struct {
	VPage, Frame uint64
}

// MapperState is the serializable state of a mapping policy: its
// policy name (restore refuses a mismatched policy) and the
// established mappings in virtual-page order.
type MapperState struct {
	Policy string
	Pairs  []MapPair
}

// ExportMapper snapshots a mapper's established mappings. Only the
// repository's deterministic policies are supported.
func ExportMapper(m Mapper) (MapperState, error) {
	var frames map[uint64]uint64
	switch mm := m.(type) {
	case *SeqMapper:
		frames = mm.frames
	case *ColorMapper:
		frames = mm.frames
	case *HashMapper:
		frames = mm.frames
	default:
		return MapperState{}, fmt.Errorf("vm: mapper %q is not checkpointable", m.Name())
	}
	st := MapperState{Policy: m.Name(), Pairs: make([]MapPair, 0, len(frames))}
	for vp, f := range frames {
		st.Pairs = append(st.Pairs, MapPair{VPage: vp, Frame: f})
	}
	sort.Slice(st.Pairs, func(i, j int) bool { return st.Pairs[i].VPage < st.Pairs[j].VPage })
	return st, nil
}

// ImportMapper restores established mappings into a fresh mapper of
// the same policy, reconstructing each policy's allocation bookkeeping
// from the pairs.
func ImportMapper(m Mapper, st MapperState) error {
	if m.Name() != st.Policy {
		return fmt.Errorf("vm: mapper policy %q cannot restore %q state", m.Name(), st.Policy)
	}
	switch mm := m.(type) {
	case *SeqMapper:
		mm.frames = make(map[uint64]uint64, len(st.Pairs))
		mm.next = 0
		for _, p := range st.Pairs {
			mm.frames[p.VPage] = p.Frame
			if p.Frame >= mm.next {
				mm.next = p.Frame + 1
			}
		}
	case *ColorMapper:
		if mm.Colors == 0 {
			return fmt.Errorf("vm: ColorMapper.Colors not set")
		}
		mm.frames = make(map[uint64]uint64, len(st.Pairs))
		mm.nextIn = make(map[uint64]uint64)
		for _, p := range st.Pairs {
			mm.frames[p.VPage] = p.Frame
			color := p.Frame % mm.Colors
			if idx := p.Frame / mm.Colors; idx >= mm.nextIn[color] {
				mm.nextIn[color] = idx + 1
			}
		}
	case *HashMapper:
		mm.frames = make(map[uint64]uint64, len(st.Pairs))
		mm.used = make(map[uint64]bool, len(st.Pairs))
		for _, p := range st.Pairs {
			mm.frames[p.VPage] = p.Frame
			mm.used[p.Frame] = true
		}
	default:
		return fmt.Errorf("vm: mapper %q is not checkpointable", m.Name())
	}
	return nil
}
