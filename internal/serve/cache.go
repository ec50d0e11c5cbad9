package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"minegame/internal/game"
	"minegame/internal/obs"
)

// notCacheable reports whether a compute failure must be discarded
// instead of cached: cancellations are properties of the REQUEST, not
// of the market, so caching one would poison every later request for
// the same key.
func notCacheable(err error) bool {
	return errors.Is(err, game.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// resultCache is a bounded LRU of marshaled item responses with
// single-flight semantics: concurrent requests for the same item join
// one in-flight solve (no duplicate work — pinned by the serve race
// tests), and a repeat request returns the exact bytes of the first,
// byte-identity for free. Entries are pure functions of their key
// (endpoint + full item), so reuse can never change a response.
// Ordinary solver failures ARE cached — an infeasible market fails the
// same way every time — but canceled computes are withdrawn and joined
// waiters transparently retry under their own context.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]*resultEntry
	lru     *list.List // front = most recent; values are string keys

	hits, misses, evictions int64
	hitsC, missesC, evictsC *obs.Counter
}

type resultEntry struct {
	done     chan struct{} // closed once raw/err are populated (or the entry is abandoned)
	raw      []byte
	err      error
	canceled bool
	elem     *list.Element // LRU slot; nil while in flight
}

// resultCacheCap bounds the result cache's entries.
const resultCacheCap = 4096

func newResultCache(ob *obs.Observer) *resultCache {
	if ob == nil {
		ob = obs.Default()
	}
	return &resultCache{
		entries: make(map[string]*resultEntry),
		lru:     list.New(),
		hitsC:   ob.Counter("serve.result_cache_hits_total"),
		missesC: ob.Counter("serve.result_cache_misses_total"),
		evictsC: ob.Counter("serve.result_cache_evictions_total"),
	}
}

// do returns the cached response for key, computing it via compute on
// first request. The bool reports a cache hit (including joins on an
// in-flight compute).
func (c *resultCache) do(key string, compute func() ([]byte, error)) ([]byte, error, bool) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil {
				c.lru.MoveToFront(e.elem)
			}
			c.hits++
			c.mu.Unlock()
			c.hitsC.Inc()
			<-e.done
			if e.canceled {
				// The request we joined was canceled and its entry
				// withdrawn; compute under our own context instead.
				continue
			}
			return e.raw, e.err, true
		}
		e := &resultEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.misses++
		c.mu.Unlock()
		c.missesC.Inc()
		e.raw, e.err = compute()
		c.mu.Lock()
		if e.err != nil && notCacheable(e.err) {
			e.canceled = true
			delete(c.entries, key)
		} else {
			e.elem = c.lru.PushFront(key)
			for c.lru.Len() > resultCacheCap {
				back := c.lru.Back()
				delete(c.entries, back.Value.(string))
				c.lru.Remove(back)
				c.evictions++
				c.evictsC.Inc()
			}
		}
		c.mu.Unlock()
		close(e.done)
		return e.raw, e.err, false
	}
}

// stats snapshots the cache counters.
func (c *resultCache) stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.entries)
}
