package core

import (
	"errors"
	"sync"

	"minegame/internal/game"
	"minegame/internal/obs"
)

// defaultDemandCap bounds a demand cache when the caller does not pick
// a cap. One two-stage solve makes a few hundred probes, so the bound
// never binds on a per-solve cache.
const defaultDemandCap = 4096

// DemandCache is a bounded, concurrency-safe warm-start cache for the
// Stackelberg demand oracle: per-price follower demand (the totals
// (E, C) of the solved equilibrium), with single-flight semantics —
// when several grid workers probe the same price point at once,
// exactly one runs the follower solve and the rest block on its entry,
// so no solve is ever duplicated.
//
// Every entry is a pure function of its price point: each numeric probe
// seeds from the market's closed form at its own prices — never from
// another probe's result — so the cache's contents, and therefore every
// result read from it, are independent of the arrival order of
// concurrent probes AND of which earlier solves populated them. A cache
// passed on StackelbergOptions.DemandCache may therefore be reused
// across solves: reuse changes only how many passes a solve takes,
// never what it returns.
//
// A cache must only ever be shared across solves of the identical
// market: same Config (including mode and budgets) and population, and
// same follower options. SolveStackelberg enforces nothing and will
// happily serve stale demand if misused. Every entry holds two numbers
// and a flag whatever the market's size, so a cache's footprint is
// O(probes), independent of N and K.
//
// The cache admits at most its cap of entries, in flight or completed,
// and never evicts: once full, a probe of a new price point computes
// without being stored. Every solve of one market makes the same
// probes, so recency carries no information, and one solve's few
// hundred probes never reach the default cap. A canceled probe
// (game.ErrCanceled from the follower solve) is discarded rather than
// cached, and joined waiters transparently re-probe, so cancellation of
// one solve can never poison the cache for the next.
type DemandCache struct {
	mu      sync.Mutex //lint:allow concurrency single-flight warm-start cache guarding pure price-point probes; results are order-independent by construction (see the type doc)
	cap     int
	entries map[Prices]*demandEntry

	hits, misses int64

	// serve.* instrumentation (nil-safe: a zero observer is disabled).
	hitsC, missesC *obs.Counter
}

type demandEntry struct {
	done chan struct{} // closed once the probe finished (or was abandoned)
	// d holds the totals of the follower equilibrium at the entry's
	// prices, not ok when the probe failed. It lets later solves at
	// exactly the same price point warm-start from the already-known
	// equilibrium.
	d warmStart
	// canceled marks an abandoned probe: the entry was removed from the
	// table before done closed, and joined waiters must re-probe.
	canceled bool
}

// NewDemandCache returns a demand cache holding at most capEntries
// probes (capEntries <= 0 picks a default of 4,096). Metrics
// (serve.cache_hits_total, serve.cache_misses_total) are recorded
// through ob; nil falls back to the process default observer.
func NewDemandCache(capEntries int, ob *obs.Observer) *DemandCache {
	if capEntries <= 0 {
		capEntries = defaultDemandCap
	}
	if ob == nil {
		ob = obs.Default()
	}
	return &DemandCache{
		cap:     capEntries,
		entries: make(map[Prices]*demandEntry),
		hitsC:   ob.Counter("serve.cache_hits_total"),
		missesC: ob.Counter("serve.cache_misses_total"),
	}
}

// DemandCacheStats is a point-in-time snapshot of a cache's counters.
type DemandCacheStats struct {
	Hits    int64 // probes served from a completed or in-flight entry
	Misses  int64 // probes that ran a follower solve
	Entries int   // live completed + in-flight entries
}

// Stats snapshots the cache counters (hit and miss totals and the
// current entry count).
func (m *DemandCache) Stats() DemandCacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return DemandCacheStats{Hits: m.hits, Misses: m.misses, Entries: len(m.entries)}
}

// get returns the memoized demand at p, computing it via compute on
// first probe. The boolean reports a cache hit (including joins on an
// in-flight computation). A full cache computes a new price point
// without storing it. A compute that fails with game.ErrCanceled is not
// cached: the entry is withdrawn and any joined waiters re-probe.
//
//minelint:hotpath
func (m *DemandCache) get(p Prices, compute func() (warmStart, error)) (warmStart, bool) {
	for {
		m.mu.Lock()
		if e, ok := m.entries[p]; ok {
			m.hits++
			m.mu.Unlock()
			m.hitsC.Inc()
			<-e.done
			if e.canceled {
				// The probe we joined was abandoned by a canceled request;
				// its entry is already withdrawn, so probe again ourselves.
				continue
			}
			return e.d, true
		}
		m.misses++
		var e *demandEntry
		if len(m.entries) < m.cap {
			//lint:allow concurrency single-flight completion signal for the cache above; closed exactly once, never used for fan-out
			e = &demandEntry{done: make(chan struct{})} //lint:allow hotalloc miss-path bookkeeping: the steady hot path is the hit branch above, and this channel is amortized over a full follower solve
			m.entries[p] = e
		}
		m.mu.Unlock()
		m.missesC.Inc()
		d, err := compute()
		if e == nil {
			return d, false // full: computed, not stored
		}
		m.mu.Lock()
		if err != nil && errors.Is(err, game.ErrCanceled) {
			e.canceled = true
			delete(m.entries, p)
		} else {
			e.d = d
		}
		m.mu.Unlock()
		close(e.done)
		return d, false
	}
}

// startAt returns the warm start memoized at exactly p: the totals of
// its equilibrium, or a start that is not ok when p was never probed,
// was not admitted, or failed. Because every entry is a pure function
// of its price point, the result — like every other cache read — is
// independent of the arrival order of concurrent probes.
func (m *DemandCache) startAt(p Prices) warmStart {
	m.mu.Lock()
	e, ok := m.entries[p]
	m.mu.Unlock()
	if !ok {
		return warmStart{}
	}
	<-e.done
	if e.canceled {
		return warmStart{}
	}
	return e.d
}
