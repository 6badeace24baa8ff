package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// ownAll makes every group of c private, as if the cache had been
// built with eagerly allocated arrays.
func ownAll(c *Cache) *Cache {
	for i := range c.groups {
		c.groups[i].own()
	}
	return c
}

// zeroImageClean reports whether the shared zero image is still all
// zero.
func zeroImageClean() bool {
	zeroImage.Lock()
	defer zeroImage.Unlock()
	for i := range zeroImage.tags {
		if zeroImage.tags[i] != 0 || zeroImage.age[i] != 0 || zeroImage.valid[i] || zeroImage.dirty[i] {
			return false
		}
	}
	return true
}

func cloneState(st CacheState) CacheState {
	st.Tags = append([]uint64(nil), st.Tags...)
	st.Valid = append([]bool(nil), st.Valid...)
	st.Dirty = append([]bool(nil), st.Dirty...)
	st.Age = append([]uint64(nil), st.Age...)
	return st
}

// cacheOp is one operation of a property-test sequence.
type cacheOp struct {
	kind int // 0 probe, 1 insert, 2 invalidate, 3 reset
	addr uint64
	flag bool // probe: write; insert: dirty
}

func (op cacheOp) apply(c *Cache) {
	switch op.kind {
	case 0:
		c.Probe(op.addr, op.flag)
	case 1:
		c.Insert(op.addr, op.flag)
	case 2:
		c.Invalidate(op.addr)
	case 3:
		c.Reset()
	}
}

// Property: a random Probe/Insert/Invalidate/Reset sequence, a
// quarter of it aimed at the sets either side of a group boundary,
// leaves three caches holding the same state — one private from the
// start, one built fresh on the zero image, one imported from a
// CacheState — with equal exports (arrays, clock and statistics), and
// leaves the imported state and the zero image unwritten.
func TestQuickCopyOnWriteMatchesEager(t *testing.T) {
	geometries := []Config{
		{Name: "l1", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2},         // 4 groups
		{Name: "l2", SizeBytes: 128 << 10, BlockBytes: 64, Assoc: 1},        // 8 groups
		{Name: "odd", SizeBytes: 6 * 64 * 3, BlockBytes: 64, Assoc: 3},      // 6 sets, 2 groups
		{Name: "wide", SizeBytes: 8 * 64 * 512, BlockBytes: 64, Assoc: 512}, // 1 set per group
		{Name: "tiny", SizeBytes: 1024, BlockBytes: 64, Assoc: 2},           // 1 group
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := geometries[rng.Intn(len(geometries))]
		sets := uint64(cfg.Sets())
		per := uint64(1) << New(cfg).shift // sets per group
		ops := func(n int, resets bool) []cacheOp {
			out := make([]cacheOp, n)
			for i := range out {
				set := rng.Uint64() % sets
				if rng.Intn(4) == 0 { // aim at a group boundary
					set = (uint64(rng.Intn(int(sets/per)+1))*per + sets - uint64(rng.Intn(2))) % sets
				}
				// A few tags per set, so hits, misses and evictions all occur.
				addr := (uint64(rng.Intn(4))*sets+set)*uint64(cfg.BlockBytes) + uint64(rng.Intn(cfg.BlockBytes))
				kind := []int{0, 0, 0, 1, 1, 1, 2}[rng.Intn(7)]
				if resets && rng.Intn(100) == 0 {
					kind = 3
				}
				out[i] = cacheOp{kind, addr, rng.Intn(2) == 0}
			}
			return out
		}

		// The starting state: a random prefix, which leaves some groups
		// of the fresh cache untouched.
		eager, fresh := ownAll(New(cfg)), New(cfg)
		for _, op := range ops(rng.Intn(300), false) {
			op.apply(eager)
			op.apply(fresh)
		}
		src := fresh.Export()
		pristine := cloneState(src)
		imported := New(cfg)
		if err := imported.Import(src); err != nil {
			t.Fatal(err)
		}

		for _, op := range ops(400, true) {
			for _, c := range []*Cache{eager, fresh, imported} {
				op.apply(c)
			}
		}
		want := eager.Export()
		return reflect.DeepEqual(fresh.Export(), want) && reflect.DeepEqual(imported.Export(), want) &&
			reflect.DeepEqual(src, pristine) && zeroImageClean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
