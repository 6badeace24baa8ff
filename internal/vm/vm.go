// Package vm provides the memory substrate shared by the functional
// and timing simulators: a sparse virtual memory image, virtual-to-
// physical page mapping policies, a TLB model, and the multi-level
// page-table walk the 21264 performs on TLB misses.
//
// The paper identifies virtual-to-physical page mapping as a dominant
// source of unresolvable macrobenchmark error: DRAM and L2 behavior
// depend on the physical address stream, which depends on mappings
// the simulator cannot reproduce. This package therefore makes the
// mapping policy explicit and pluggable (sequential first-touch,
// OS page coloring, pseudo-random), so the reference machine and the
// simulators can legitimately disagree the way real systems do.
package vm

import (
	"encoding/binary"
	"fmt"
	"maps"
)

// PageBits is log2 of the page size (8 KB, as on Alpha).
const PageBits = 13

// PageSize is the virtual memory page size in bytes.
const PageSize = 1 << PageBits

// PageMask extracts the offset within a page.
const PageMask = PageSize - 1

// WalkLevels is the depth of the page-table radix tree walked on a
// TLB miss (the paper's "five levels of page tables").
const WalkLevels = 5

// Memory is a sparse, byte-addressable virtual memory image. The zero
// value is an empty memory; reads of untouched locations return zero.
//
// Pages may be aliased from an Image or an imported checkpoint rather
// than owned: reads use them in place, and the first store to one
// copies it, so a Memory never writes through to anything it shares.
type Memory struct {
	pages map[uint64]frame
}

// frame is one resident page. shared marks a page aliased from an
// Image or an imported checkpoint, which must be copied before a
// store.
type frame struct {
	data   *[PageSize]byte
	shared bool
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]frame)}
}

// page returns the page holding vpage. A read (write=false) of a page
// that is not resident returns nil. A write creates a missing page and
// replaces an aliased one with a private copy first.
func (m *Memory) page(vpage uint64, write bool) *[PageSize]byte {
	f, ok := m.pages[vpage]
	if !write || (ok && !f.shared) {
		return f.data
	}
	if m.pages == nil {
		m.pages = make(map[uint64]frame)
	}
	p := new([PageSize]byte)
	if ok {
		*p = *f.data
	}
	m.pages[vpage] = frame{data: p}
	return p
}

// Byte returns the byte at addr.
func (m *Memory) Byte(addr uint64) byte {
	p := m.page(addr>>PageBits, false)
	if p == nil {
		return 0
	}
	return p[addr&PageMask]
}

// SetByte stores one byte at addr.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr>>PageBits, true)[addr&PageMask] = v
}

// Read64 returns the little-endian 64-bit word at addr. The access
// may straddle a page boundary.
func (m *Memory) Read64(addr uint64) uint64 {
	if off := addr & PageMask; off <= PageSize-8 {
		p := m.page(addr>>PageBits, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Byte(addr+i)) << (8 * i)
	}
	return v
}

// Write64 stores a little-endian 64-bit word at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	if off := addr & PageMask; off <= PageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr>>PageBits, true)[off:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.SetByte(addr+i, byte(v>>(8*i)))
	}
}

// Read32 returns the little-endian 32-bit word at addr. The access
// may straddle a page boundary.
func (m *Memory) Read32(addr uint64) uint32 {
	if off := addr & PageMask; off <= PageSize-4 {
		p := m.page(addr>>PageBits, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off:])
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		v |= uint32(m.Byte(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores a little-endian 32-bit word at addr.
func (m *Memory) Write32(addr uint64, v uint32) {
	if off := addr & PageMask; off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr>>PageBits, true)[off:], v)
		return
	}
	for i := uint64(0); i < 4; i++ {
		m.SetByte(addr+i, byte(v>>(8*i)))
	}
}

// SetBytes copies b into memory starting at addr, a page at a time.
// Every page the range covers becomes resident, even where b is zero.
func (m *Memory) SetBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr>>PageBits, true)[addr&PageMask:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// TouchedPages returns how many distinct pages are resident: loaded
// from an image, imported from a checkpoint, or written.
func (m *Memory) TouchedPages() int { return len(m.pages) }

// Image is a read-only memory image, built once and shared. It has no
// write methods; every Memory made from it aliases its pages and
// copies one only on its first store there. Safe for concurrent use.
type Image struct {
	pages map[uint64]frame // every frame shared
}

// Freeze moves m's contents into a new Image and leaves m empty, so
// nothing can store to the image's pages.
func (m *Memory) Freeze() *Image {
	for vp, f := range m.pages {
		m.pages[vp] = frame{data: f.data, shared: true}
	}
	img := &Image{pages: m.pages}
	m.pages = nil
	return img
}

// Memory returns a fresh memory holding the image's contents.
func (img *Image) Memory() *Memory {
	return &Memory{pages: maps.Clone(img.pages)}
}

// Mapper assigns physical page frames to virtual pages. Frame numbers
// are dense small integers; physical addresses are frame<<PageBits |
// offset. Implementations must be deterministic for reproducibility.
type Mapper interface {
	// Frame returns the physical frame for a virtual page number,
	// allocating one on first touch.
	Frame(vpage uint64) uint64
	// Name identifies the policy in reports.
	Name() string
}

// SeqMapper allocates frames in first-touch order, the behavior of
// simulators (like sim-alpha) that do not model OS page placement.
// The zero value is ready to use.
type SeqMapper struct {
	frames map[uint64]uint64
	next   uint64
}

// Frame implements Mapper.
func (s *SeqMapper) Frame(vpage uint64) uint64 {
	if s.frames == nil {
		s.frames = make(map[uint64]uint64)
	}
	if f, ok := s.frames[vpage]; ok {
		return f
	}
	f := s.next
	s.next++
	s.frames[vpage] = f
	return f
}

// Name implements Mapper.
func (s *SeqMapper) Name() string { return "sequential" }

// ColorMapper implements OS page coloring: the allocated frame's
// cache color (frame mod Colors) always equals the virtual page's
// color, so large-cache conflict behavior is controlled the way a
// coloring OS (like Tru64) controls it. This is one of the native
// DS-10L behaviors the paper says sim-alpha does not capture.
type ColorMapper struct {
	// Colors is the number of page colors (L2 size / associativity /
	// page size). It must be a power of two and set before first use.
	Colors uint64

	frames map[uint64]uint64
	nextIn map[uint64]uint64 // next frame index per color
}

// Frame implements Mapper.
func (c *ColorMapper) Frame(vpage uint64) uint64 {
	if c.Colors == 0 {
		panic("vm: ColorMapper.Colors not set")
	}
	if c.frames == nil {
		c.frames = make(map[uint64]uint64)
		c.nextIn = make(map[uint64]uint64)
	}
	if f, ok := c.frames[vpage]; ok {
		return f
	}
	color := vpage % c.Colors
	f := c.nextIn[color]*c.Colors + color
	c.nextIn[color]++
	c.frames[vpage] = f
	return f
}

// Name implements Mapper.
func (c *ColorMapper) Name() string { return "page-colored" }

// HashMapper scatters virtual pages pseudo-randomly across frames,
// modeling an uncontrolled mapping left over from prior allocations
// on a long-running machine. Deterministic for a given Seed.
type HashMapper struct {
	Seed   uint64
	frames map[uint64]uint64
	used   map[uint64]bool
}

// Frame implements Mapper.
func (h *HashMapper) Frame(vpage uint64) uint64 {
	if h.frames == nil {
		h.frames = make(map[uint64]uint64)
		h.used = make(map[uint64]bool)
	}
	if f, ok := h.frames[vpage]; ok {
		return f
	}
	x := vpage*0x9e3779b97f4a7c15 + h.Seed | 1
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	f := x % (1 << 15) // 32K frames = 256MB, the DS-10L's memory
	for h.used[f] {
		f = (f + 1) % (1 << 15)
	}
	h.used[f] = true
	h.frames[vpage] = f
	return f
}

// Name implements Mapper.
func (h *HashMapper) Name() string { return "hashed" }

// Translate returns the physical address for vaddr under m.
func Translate(m Mapper, vaddr uint64) uint64 {
	return m.Frame(vaddr>>PageBits)<<PageBits | vaddr&PageMask
}

// TLB is a fully associative translation buffer with round-robin
// replacement, used by the timing models. It caches virtual page
// numbers only; translation itself goes through the Mapper.
type TLB struct {
	entries []uint64
	valid   []bool
	next    int

	// last caches the most recently probed page (which is always
	// resident: it was either just hit or just inserted), so the
	// common same-page access run skips the associative scan. A hit
	// leaves replacement state untouched, making the shortcut
	// invisible to timing and to the Hits/Misses accounting.
	last   uint64
	lastOK bool

	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given number of entries.
func NewTLB(entries int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("vm: invalid TLB size %d", entries))
	}
	return &TLB{entries: make([]uint64, entries), valid: make([]bool, entries)}
}

// Lookup probes the TLB for the page containing vaddr and inserts it
// on a miss. It reports whether the probe hit.
func (t *TLB) Lookup(vaddr uint64) bool {
	vpage := vaddr >> PageBits
	if t.lastOK && t.last == vpage {
		t.Hits++
		return true
	}
	for i, e := range t.entries {
		if t.valid[i] && e == vpage {
			t.Hits++
			t.last, t.lastOK = vpage, true
			return true
		}
	}
	t.Misses++
	t.entries[t.next] = vpage
	t.valid[t.next] = true
	t.next = (t.next + 1) % len(t.entries)
	t.last, t.lastOK = vpage, true
	return false
}

// Size returns the TLB capacity in entries.
func (t *TLB) Size() int { return len(t.entries) }

// Reset invalidates all entries and clears counters.
func (t *TLB) Reset() {
	for i := range t.valid {
		t.valid[i] = false
	}
	t.next = 0
	t.lastOK = false
	t.Hits, t.Misses = 0, 0
}

// ptBase is the physical region where synthetic page-table entries
// live, so that walk references exercise the cache hierarchy like any
// other access. It sits far above the program's working frames.
const ptBase = uint64(1) << 40

// WalkAddrs returns the physical addresses of the WalkLevels page-
// table entries a hardware (or PAL-code) walker reads to translate
// vaddr. Each level indexes a radix tree node with 10-bit fanout.
func WalkAddrs(vaddr uint64) [WalkLevels]uint64 {
	var out [WalkLevels]uint64
	vpn := vaddr >> PageBits
	for lvl := 0; lvl < WalkLevels; lvl++ {
		shift := uint(10 * (WalkLevels - 1 - lvl))
		index := vpn >> shift
		out[lvl] = ptBase + uint64(lvl)<<30 + index*8
	}
	return out
}
