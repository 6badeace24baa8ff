// Package simcache is the content-addressed result cache behind the
// simulation service. Every deterministic simulation in this
// repository is a pure function of its inputs — a machine
// configuration, a workload, and an instruction budget — so its
// result can be computed once and served forever. The cache keys
// results by a canonical hash of those inputs, bounds memory with LRU
// eviction, and collapses concurrent identical requests onto a single
// computation (singleflight), which is what turns the paper's
// dominant cost — re-running the same (machine × workload) cell under
// the same configuration — into a lookup.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
)

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 1024

// Tier2 is an optional second cache tier behind the in-memory LRU —
// typically an on-disk store (internal/diskstore) shared across
// restarts or between processes. A memory miss consults the tier
// before computing, and every successful computation writes through.
// Implementations must be safe for concurrent use; Put is
// best-effort and must not fail the caller.
type Tier2 interface {
	Get(Key) ([]byte, bool)
	Put(Key, []byte)
}

// Key is the content address of one cached result: a SHA-256 over
// the canonical rendering of the inputs that determine it.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf hashes the parts into a Key. Parts are length-prefixed
// before hashing so distinct part boundaries can never collide
// ("ab","c" ≠ "a","bc").
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a point-in-time snapshot of cache accounting.
type Stats struct {
	Hits      uint64 // served from a stored entry
	Misses    uint64 // led a computation or a tier-2 read
	Tier2Hits uint64 // misses answered by the second tier without computing
	Waits     uint64 // joined another request's in-flight computation
	Evictions uint64 // entries dropped by the LRU bound
	Entries   int    // stored entries right now
	InFlight  int    // computations running right now
	Capacity  int
}

type entry struct {
	key Key
	val []byte
}

type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is a bounded, content-addressed map from Key to immutable
// result bytes with LRU eviction and singleflight computation. All
// methods are safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[Key]*list.Element
	inflight  map[Key]*flight
	tier2     Tier2
	hits      uint64
	misses    uint64
	tier2Hits uint64
	waits     uint64
	evictions uint64
}

// New returns a cache bounded to capacity entries (DefaultCapacity
// when capacity is not positive).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element),
		inflight: make(map[Key]*flight),
	}
}

// GetOrCompute returns the bytes stored under key, computing them at
// most once. cached reports whether the caller was served without
// running compute itself — from a stored entry or by joining another
// caller's in-flight computation. The returned slice is the caller's
// to keep; it never aliases cache storage. Errors are returned to
// every waiter but never cached, so a failed computation is retried
// by the next request. A panic inside compute is converted to an
// error rather than wedging waiters.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) (val []byte, cached bool, err error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return clone(v), true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.waits++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return clone(f.val), true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	t := c.tier2
	c.mu.Unlock()

	// A memory miss consults the second tier before computing; a
	// computed value writes through. Both happen off the mutex (the
	// tier is typically disk), under singleflight like compute itself.
	fromTier2 := false
	if t != nil {
		if v, ok := t.Get(key); ok {
			f.val, fromTier2 = v, true
		}
	}
	if !fromTier2 {
		func() {
			defer func() {
				if p := recover(); p != nil {
					f.err = fmt.Errorf("simcache: compute panicked: %v", p)
				}
			}()
			f.val, f.err = compute()
		}()
		if f.err == nil && t != nil {
			t.Put(key, f.val)
		}
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insert(key, f.val)
	}
	if fromTier2 {
		c.tier2Hits++
	}
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, false, f.err
	}
	return clone(f.val), fromTier2, nil
}

// SetTier2 attaches (or, with nil, detaches) a second cache tier.
// Safe to call concurrently with lookups; entries already in memory
// are unaffected.
func (c *Cache) SetTier2(t Tier2) {
	c.mu.Lock()
	c.tier2 = t
	c.mu.Unlock()
}

// Peek returns the stored bytes without touching recency or stats.
func (c *Cache) Peek(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		return clone(el.Value.(*entry).val), true
	}
	return nil, false
}

// Keys returns the stored keys from most to least recently used.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Stats returns a snapshot of the accounting counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Tier2Hits: c.tier2Hits,
		Waits:     c.waits,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		InFlight:  len(c.inflight),
		Capacity:  c.capacity,
	}
}

// insert stores val under key and evicts from the LRU tail past
// capacity. Caller holds c.mu. The value is cloned on the way in so
// the cache owns its storage outright.
func (c *Cache) insert(key Key, val []byte) {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*entry).val = clone(val)
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&entry{key: key, val: clone(val)})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*entry).key)
		c.evictions++
	}
}

func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
