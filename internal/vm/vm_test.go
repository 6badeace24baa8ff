package vm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite64(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xdeadbeefcafef00d)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafef00d {
		t.Fatalf("Read64 = %#x", got)
	}
	if got := m.Read64(0x2000); got != 0 {
		t.Fatalf("untouched Read64 = %#x, want 0", got)
	}
	// Little-endian byte order.
	if got := m.Byte(0x1000); got != 0x0d {
		t.Fatalf("low byte = %#x, want 0x0d", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(PageSize - 3)
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Fatalf("straddling Read64 = %#x", got)
	}
	if m.TouchedPages() != 2 {
		t.Fatalf("TouchedPages = %d, want 2", m.TouchedPages())
	}
}

func TestMemory32(t *testing.T) {
	m := NewMemory()
	m.Write32(0x10, 0xaabbccdd)
	if got := m.Read32(0x10); got != 0xaabbccdd {
		t.Fatalf("Read32 = %#x", got)
	}
	m.Write64(0x20, 0x1111111122222222)
	if got := m.Read32(0x20); got != 0x22222222 {
		t.Fatalf("low Read32 = %#x", got)
	}
	if got := m.Read32(0x24); got != 0x11111111 {
		t.Fatalf("high Read32 = %#x", got)
	}
}

// Property: a 64-bit write followed by a read returns the value, at
// any alignment.
func TestQuickMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, v uint64) bool {
		addr %= 1 << 30
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSetBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		addr  uint64
		n     int
		pages int
	}{
		{"within a page", 100, 4, 1},
		{"straddling a page", PageSize - 3, 8, 2},
		{"multi-page", 3*PageSize + 17, 3*PageSize + 5, 4},
		{"empty", 100, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := make([]byte, tc.n)
			for i := range b {
				b[i] = byte(i*7 + 1)
			}
			m := NewMemory()
			m.SetBytes(tc.addr, b)
			for i, want := range b {
				if got := m.Byte(tc.addr + uint64(i)); got != want {
					t.Fatalf("byte %d = %d, want %d", i, got, want)
				}
			}
			if got := m.Byte(tc.addr - 1); got != 0 {
				t.Fatalf("byte before range = %d, want 0", got)
			}
			if got := m.Byte(tc.addr + uint64(tc.n)); got != 0 {
				t.Fatalf("byte after range = %d, want 0", got)
			}
			if m.TouchedPages() != tc.pages {
				t.Fatalf("TouchedPages = %d, want %d", m.TouchedPages(), tc.pages)
			}
		})
	}
}

// The zero Memory is an empty memory that accepts stores.
func TestZeroMemoryWrite(t *testing.T) {
	var m Memory
	if got := m.Read64(0x1000); got != 0 {
		t.Fatalf("zero Read64 = %#x", got)
	}
	m.Write64(0x1000, 0x0102030405060708)
	m.Write32(PageSize, 0xaabbccdd)
	m.SetByte(2*PageSize, 9)
	m.SetBytes(3*PageSize, []byte{1, 2})
	if m.Read64(0x1000) != 0x0102030405060708 || m.Read32(PageSize) != 0xaabbccdd ||
		m.Byte(2*PageSize) != 9 || m.Byte(3*PageSize+1) != 2 {
		t.Fatal("zero Memory lost a store")
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("TouchedPages = %d, want 4", m.TouchedPages())
	}
}

func TestMemory32Straddle(t *testing.T) {
	m := NewMemory()
	for _, addr := range []uint64{PageSize - 1, PageSize - 2, PageSize - 3, PageSize - 4} {
		m.Write32(addr, 0x11223344)
		if got := m.Read32(addr); got != 0x11223344 {
			t.Fatalf("Read32(%#x) = %#x", addr, got)
		}
		if got := m.Read64(addr - 4); got>>32 != 0x11223344 {
			t.Fatalf("Read64(%#x) high half = %#x", addr-4, got>>32)
		}
	}
}

// imageFixture is an image of three pages, and the memory it was
// frozen from.
func imageFixture() (*Memory, *Image) {
	src := NewMemory()
	src.SetBytes(PageSize-8, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	src.Write64(5*PageSize, 0xfeedface)
	return src, src.Freeze()
}

// Memories made from one image do not see each other's stores, and
// the image itself never changes.
func TestImageCopyOnWrite(t *testing.T) {
	src, img := imageFixture()
	want := img.Memory().ExportPages()

	a, b := img.Memory(), img.Memory()
	a.Write64(5*PageSize, 1)
	a.SetByte(PageSize-8, 0xff)
	b.Write32(PageSize+100, 2)
	if src.TouchedPages() != 0 {
		t.Fatalf("Freeze left %d pages in its memory", src.TouchedPages())
	}
	src.Write64(5*PageSize, 3)

	if got := a.Read64(5 * PageSize); got != 1 {
		t.Fatalf("a sees %#x, want its own store", got)
	}
	if got := b.Read64(5 * PageSize); got != 0xfeedface {
		t.Fatalf("b sees %#x, want the image's word", got)
	}
	if got := b.Byte(PageSize - 8); got != 1 {
		t.Fatalf("b sees a's byte store: %d", got)
	}
	if got := a.Read32(PageSize + 100); got != 0 {
		t.Fatalf("a sees b's word store: %#x", got)
	}
	if got := img.Memory().ExportPages(); !reflect.DeepEqual(got, want) {
		t.Fatal("stores to memories made from the image changed the image")
	}
	if a.TouchedPages() != 3 || b.TouchedPages() != 3 {
		t.Fatalf("TouchedPages = %d, %d, want 3", a.TouchedPages(), b.TouchedPages())
	}
}

// ImportPages aliases its argument; stores to the restored memory
// never reach it.
func TestImportPagesCopyOnWrite(t *testing.T) {
	_, img := imageFixture()
	pages := img.Memory().ExportPages()
	want := img.Memory().ExportPages()

	m := NewMemory()
	m.ImportPages(pages)
	m.Write64(5*PageSize, 1)
	m.Write32(PageSize-2, 2)
	m.SetByte(PageSize-8, 3)
	m.SetBytes(7*PageSize, []byte{4})

	if !reflect.DeepEqual(pages, want) {
		t.Fatal("stores after ImportPages changed the imported pages")
	}
	if got := m.Read64(5 * PageSize); got != 1 {
		t.Fatalf("restored memory lost its store: %#x", got)
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("TouchedPages = %d, want 4", m.TouchedPages())
	}
}

// Property: a random sequence of stores, some straddling pages,
// leaves an aliased memory (from an image, or from ImportPages) and an
// eagerly copied one with the same exported pages and page count.
func TestQuickAliasedMatchesEager(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func() *Memory {
			m := NewMemory()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4; i++ {
				b := make([]byte, r.Intn(2*PageSize))
				r.Read(b)
				m.SetBytes(uint64(r.Intn(6*PageSize)), b)
			}
			return m
		}
		eager := build()
		fromImage := build().Freeze().Memory()
		imported := NewMemory()
		imported.ImportPages(build().ExportPages())
		mems := []*Memory{eager, fromImage, imported}

		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(8 * PageSize))
			if rng.Intn(4) == 0 { // aim at a page boundary
				addr = uint64(1+rng.Intn(8))*PageSize - uint64(1+rng.Intn(7))
			}
			v := rng.Uint64()
			op := rng.Intn(3)
			for _, m := range mems {
				switch op {
				case 0:
					m.Write64(addr, v)
				case 1:
					m.Write32(addr, uint32(v))
				case 2:
					m.SetByte(addr, byte(v))
				}
			}
		}
		want := eager.ExportPages()
		for _, m := range mems[1:] {
			if !reflect.DeepEqual(m.ExportPages(), want) || m.TouchedPages() != eager.TouchedPages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSeqMapper(t *testing.T) {
	var s SeqMapper
	f0 := s.Frame(100)
	f1 := s.Frame(200)
	f2 := s.Frame(100)
	if f0 != 0 || f1 != 1 || f2 != f0 {
		t.Fatalf("frames = %d %d %d", f0, f1, f2)
	}
}

func TestColorMapperPreservesColor(t *testing.T) {
	c := &ColorMapper{Colors: 128}
	seen := map[uint64]bool{}
	for vp := uint64(0); vp < 1000; vp += 7 {
		f := c.Frame(vp)
		if f%c.Colors != vp%c.Colors {
			t.Fatalf("vpage %d color %d got frame %d color %d", vp, vp%c.Colors, f, f%c.Colors)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	// Stable on re-lookup.
	if c.Frame(7) != c.Frame(7) {
		t.Fatal("ColorMapper not stable")
	}
}

func TestHashMapperDeterministicAndUnique(t *testing.T) {
	a := &HashMapper{Seed: 42}
	b := &HashMapper{Seed: 42}
	seen := map[uint64]bool{}
	for vp := uint64(0); vp < 2000; vp++ {
		fa, fb := a.Frame(vp), b.Frame(vp)
		if fa != fb {
			t.Fatalf("vpage %d: %d vs %d", vp, fa, fb)
		}
		if seen[fa] {
			t.Fatalf("frame %d reused", fa)
		}
		seen[fa] = true
	}
	c := &HashMapper{Seed: 43}
	diff := 0
	for vp := uint64(0); vp < 100; vp++ {
		if c.Frame(vp) != a.Frame(vp) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical mappings")
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	var s SeqMapper
	va := uint64(5*PageSize + 1234)
	pa := Translate(&s, va)
	if pa&PageMask != 1234 {
		t.Fatalf("offset lost: %#x", pa)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Lookup(0x1000) {
		t.Fatal("first lookup hit")
	}
	if !tlb.Lookup(0x1008) {
		t.Fatal("same-page lookup missed")
	}
	// Fill and evict round-robin.
	for i := 1; i <= 4; i++ {
		tlb.Lookup(uint64(i) * PageSize * 2)
	}
	if tlb.Lookup(0x1000) {
		t.Fatal("evicted entry hit")
	}
	if tlb.Hits != 1 || tlb.Misses != 6 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
	tlb.Reset()
	if tlb.Hits != 0 || tlb.Misses != 0 || tlb.Lookup(0x1000) {
		t.Fatal("Reset did not clear state")
	}
}

func TestTLBSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestWalkAddrs(t *testing.T) {
	a := WalkAddrs(0x12345678)
	b := WalkAddrs(0x12345678 + 4) // same page, same walk
	if a != b {
		t.Fatal("walk differs within a page")
	}
	c := WalkAddrs(0x12345678 + PageSize)
	if a[WalkLevels-1] == c[WalkLevels-1] {
		t.Fatal("leaf PTE identical across pages")
	}
	// Upper levels shared for nearby pages.
	if a[0] != c[0] {
		t.Fatal("root PTE differs for nearby pages")
	}
	for i := 0; i < WalkLevels; i++ {
		if a[i] < ptBase {
			t.Fatalf("level %d address %#x below page-table region", i, a[i])
		}
	}
}
