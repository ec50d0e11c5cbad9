package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"minegame/internal/game"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// probe runs one cache get with a compute that records whether it ran.
func probe(t *testing.T, m *DemandCache, p Prices) (hit bool, computed bool) {
	t.Helper()
	_, hit = m.get(p, func() (warmStart, error) {
		computed = true
		return warmStart{totals: numeric.Point2{E: p.Edge, C: p.Cloud}, ok: true}, nil
	})
	return hit, computed
}

// TestDemandCacheAdmissionBound pins the cache's bound: it admits up to
// its cap of probes, and past that a new price point computes on every
// probe without displacing an admitted one.
func TestDemandCacheAdmissionBound(t *testing.T) {
	ob := obs.New()
	m := NewDemandCache(2, ob)
	p1, p2, p3 := Prices{Edge: 1}, Prices{Edge: 2}, Prices{Edge: 3}

	for _, p := range []Prices{p1, p2} {
		if hit, computed := probe(t, m, p); hit || !computed {
			t.Fatalf("first probe of %+v: hit=%v computed=%v", p, hit, computed)
		}
	}
	for round := 0; round < 3; round++ {
		for _, p := range []Prices{p1, p2} {
			if hit, computed := probe(t, m, p); !hit || computed {
				t.Fatalf("round %d: repeat probe of admitted %+v: hit=%v computed=%v", round, p, hit, computed)
			}
		}
		if hit, computed := probe(t, m, p3); hit || !computed {
			t.Fatalf("round %d: probe of %+v past the cap: hit=%v computed=%v; want a compute every time", round, p3, hit, computed)
		}
		if st := m.Stats(); st.Entries != 2 {
			t.Fatalf("round %d: entries = %d, want 2", round, st.Entries)
		}
	}
	if st := m.Stats(); st.Hits != 6 || st.Misses != 5 {
		t.Fatalf("stats = %+v, want 6 hits and 5 misses", st)
	}
	if got := ob.Counter("serve.cache_hits_total").Value(); got != 6 {
		t.Fatalf("serve.cache_hits_total = %d, want 6", got)
	}
	if got := ob.Counter("serve.cache_misses_total").Value(); got != 5 {
		t.Fatalf("serve.cache_misses_total = %d, want 5", got)
	}
}

func TestDemandCacheCanceledProbeNotCached(t *testing.T) {
	m := NewDemandCache(8, obs.New())
	p := Prices{Edge: 1, Cloud: 2}
	computes := 0
	canceled := func() (warmStart, error) {
		computes++
		return warmStart{}, fmt.Errorf("probe: %w", game.ErrCanceled)
	}
	if _, hit := m.get(p, canceled); hit {
		t.Fatal("first canceled probe cannot be a hit")
	}
	// The canceled probe must have been withdrawn: the next probe
	// recomputes instead of serving the abandoned result.
	d, hit := m.get(p, func() (warmStart, error) {
		computes++
		return warmStart{totals: numeric.Point2{E: 7}, ok: true}, nil
	})
	if hit || computes != 2 || !d.ok || d.totals.E != 7 {
		t.Fatalf("post-cancel probe: hit=%v computes=%d d=%+v; want a fresh compute", hit, computes, d)
	}
	// Ordinary (non-cancel) failures ARE cached — a pure function of the
	// price point fails the same way every time.
	pBad := Prices{Edge: 9}
	fails := 0
	fail := func() (warmStart, error) {
		fails++
		return warmStart{}, errors.New("infeasible market")
	}
	m.get(pBad, fail)
	if _, hit := m.get(pBad, fail); !hit || fails != 1 {
		t.Fatalf("non-cancel failure should be cached: hit=%v fails=%d", hit, fails)
	}
	if st := m.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (the canceled entry withdrawn)", st.Entries)
	}
}

// TestDemandCacheDefaultCap pins that a zero cap (the per-solve cache
// SolveStackelberg builds when StackelbergOptions.DemandCache is nil)
// resolves to the documented default rather than an unbounded table.
func TestDemandCacheDefaultCap(t *testing.T) {
	m := NewDemandCache(0, nil)
	if m.cap != defaultDemandCap {
		t.Fatalf("cap = %d, want defaultDemandCap (%d)", m.cap, defaultDemandCap)
	}
}

// heteroConfig is a small heterogeneous market (numeric demand oracle,
// so the cache actually carries profiles).
func heteroConfig() Config {
	cfg := Config{
		N: 6, Reward: 100, Beta: 0.6, SatisfyProb: 0.9,
		CostE: 1, CostC: 0.5, Mode: netmodel.Connected,
	}
	cfg.Budgets = make([]float64, cfg.N)
	for i := range cfg.Budgets {
		cfg.Budgets[i] = 8 + float64(i)
	}
	return cfg
}

// TestStackelbergResidentCacheIdentical pins the purity invariant the
// serving daemon relies on: re-solving the same market through a shared
// resident DemandCache returns exactly the result of a fresh cold
// solve, while the repeat solve's probes are all cache hits.
func TestStackelbergResidentCacheIdentical(t *testing.T) {
	cfg := heteroConfig()
	opts := StackelbergOptions{Workers: 1}
	opts.Leader.GridN = 12
	cold, err := SolveStackelberg(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewDemandCache(0, nil)
	warmOpts := opts
	warmOpts.DemandCache = cache
	first, err := SolveStackelberg(cfg, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := cache.Stats().Misses
	second, err := SolveStackelberg(cfg, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, cold) || !reflect.DeepEqual(second, cold) {
		t.Fatalf("resident-cache solves diverged from the cold solve:\ncold   %+v\nfirst  %+v\nsecond %+v", cold, first, second)
	}
	st := cache.Stats()
	if st.Misses != missesAfterFirst {
		t.Fatalf("repeat solve ran %d new follower solves; want 0 (all probes cached)", st.Misses-missesAfterFirst)
	}
	if st.Hits == 0 {
		t.Fatal("repeat solve recorded no cache hits")
	}
}

// TestStackelbergCanceled pins the documented cancellation error on the
// two-stage solver, and that a canceled request leaves no entries
// behind in a resident cache (no poisoning).
func TestStackelbergCanceled(t *testing.T) {
	cfg := heteroConfig()
	cache := NewDemandCache(0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := StackelbergOptions{Workers: 1, Ctx: ctx, DemandCache: cache}
	opts.Leader.GridN = 12
	_, err := SolveStackelberg(cfg, opts)
	if !errors.Is(err, game.ErrCanceled) {
		t.Fatalf("expected game.ErrCanceled, got %v", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("canceled solve left %d cache entries behind", st.Entries)
	}
	// The same cache then serves an uncanceled solve that matches a
	// fresh one bit for bit.
	clean := StackelbergOptions{Workers: 1}
	clean.Leader.GridN = 12
	want, err := SolveStackelberg(cfg, clean)
	if err != nil {
		t.Fatal(err)
	}
	cleanCached := clean
	cleanCached.DemandCache = cache
	got, err := SolveStackelberg(cfg, cleanCached)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cancel cache poisoned the solve:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestMinerEquilibriumCanceled pins the Canceled → error mapping on the
// follower-level entry points.
func TestMinerEquilibriumCanceled(t *testing.T) {
	cfg := heteroConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveMinerEquilibrium(cfg, Prices{Edge: 2, Cloud: 1}, game.NEOptions{Ctx: ctx})
	if !errors.Is(err, game.ErrCanceled) {
		t.Fatalf("connected: expected game.ErrCanceled, got %v", err)
	}
	alone := cfg
	alone.Mode = netmodel.Standalone
	alone.EdgeCapacity = 30
	_, err = SolveMinerEquilibrium(alone, Prices{Edge: 2, Cloud: 1}, game.NEOptions{Ctx: ctx})
	if !errors.Is(err, game.ErrCanceled) {
		t.Fatalf("standalone: expected game.ErrCanceled, got %v", err)
	}
}

// TestDemandCacheEntriesHoldNoPerTypeSlice pins the resident footprint
// of a demand cache at O(probes): a probe entry carries demand and
// warm-start totals, and no field, however nested by value,
// is a slice or map that could grow with the market's N or K.
func TestDemandCacheEntriesHoldNoPerTypeSlice(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Slice, reflect.Map, reflect.Array:
			t.Errorf("%s is a %s", path, typ)
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("demandEntry", reflect.TypeOf(demandEntry{}))
}
