package main

import (
	"sync"
	"time"

	"repro/internal/diskstore"
	"repro/internal/simcache"
)

// tierCall is one timed call into the second cache tier. The service
// does not say which request a call serves, so calls carry their key
// and are attached to requests afterwards by key and time.
type tierCall struct {
	put        bool
	key        simcache.Key
	hit        bool
	bytes      int
	start, end time.Time
}

// timedStore is the service's second cache tier with every Get and Put
// timed from outside. It passes bytes and ok through unchanged, and it
// embeds the store so the service still finds the store's integrity
// counters (CorruptReads, PutErrors) on it.
type timedStore struct {
	*diskstore.Store
	mu    sync.Mutex
	calls []tierCall
}

func (t *timedStore) Get(k simcache.Key) ([]byte, bool) {
	start := time.Now()
	b, ok := t.Store.Get(k)
	t.log(tierCall{key: k, hit: ok, bytes: len(b), start: start, end: time.Now()})
	return b, ok
}

func (t *timedStore) Put(k simcache.Key, val []byte) {
	start := time.Now()
	t.Store.Put(k, val)
	t.log(tierCall{put: true, key: k, bytes: len(val), start: start, end: time.Now()})
}

func (t *timedStore) log(c tierCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// drain returns the calls logged so far and forgets them.
func (t *timedStore) drain() []tierCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = nil
	return out
}
