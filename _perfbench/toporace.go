package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"minegame/internal/chain/topo"
	"minegame/internal/obs"
	"minegame/internal/sim"
)

// topoSession drives topo-race through library calls: the daemon has no
// topology endpoint.
type topoSession struct {
	seed   int64
	cur    topoItem
	res    topo.Result
	first  []float64 // item 0's β̂ table, for the repeat check
	events int64

	replayEvents, replayAllocB float64
}

func newTopoSession(seed int64) (session, error) {
	s := &topoSession{seed: seed}
	for i := 0; i < 2; i++ { // warm-up prefix
		it, err := newTopoItem(seed, labelWarm, i)
		if err != nil {
			return nil, err
		}
		if _, err := topo.EstimateReplicated(it.topology, topoConfig(), it.seed, topoReplicas); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *topoSession) prepare(i int) error {
	it, err := newTopoItem(s.seed, labelTimed, i)
	s.cur = it
	return err
}

func (s *topoSession) do(int) error {
	var err error
	s.res, err = topo.EstimateReplicated(s.cur.topology, topoConfig(), s.cur.seed, topoReplicas)
	return err
}

func (s *topoSession) check(i int) (int, int, []string) {
	bad := checkRace(s.res)
	if i == 0 {
		s.first = s.res.Betas()
	}
	s.events += int64(s.res.Events)
	for j := range bad {
		bad[j] = fmt.Sprintf("topo-race item %d: %s", i, bad[j])
	}
	if len(bad) > 0 {
		return 1, 1, bad
	}
	return 1, 0, nil
}

// checkRace verifies block conservation and the range of every β̂.
func checkRace(r topo.Result) []string {
	var bad []string
	for n, st := range r.Stats {
		if st.Mined != st.Credited+st.Orphaned {
			bad = append(bad, fmt.Sprintf("node %d: mined %d != credited %d + orphaned %d", n, st.Mined, st.Credited, st.Orphaned))
		}
		if !(st.Beta >= 0 && st.Beta <= 1) || math.IsNaN(st.Beta) {
			bad = append(bad, fmt.Sprintf("node %d: beta %g outside [0,1]", n, st.Beta))
		}
	}
	return bad
}

func (s *topoSession) observers() []*obs.Observer { return nil }

// replay runs one race replica of item i directly, on the stream
// EstimateReplicated gives replica 0.
func (s *topoSession) replay(i int, rec *recorder) ([]string, error) {
	it, err := newTopoItem(s.seed, labelTimed, i)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(it.seed, "topo-replica-0")
	var res topo.Result
	a0 := allocBytes()
	start := time.Now()
	res, err = topo.Estimate(it.topology, topoConfig(), rng)
	end := time.Now()
	s.replayAllocB += allocBytes() - a0
	if err != nil {
		return nil, err
	}
	rec.add("topo.estimate", -1, i, start, end)
	s.replayEvents += float64(res.Events)
	return checkRace(res), nil
}

func (s *topoSession) layers(t *tracedRun, m map[string]metric) {
	replicaMs := t.rec.byName("topo.estimate")
	m["topo.events_per_item"] = metric{ratio(float64(s.events), float64(t.plain.items+t.traced.items)), "count"}
	m["topo.replica_ms_p50"] = metric{median(replicaMs), "ms"}
	m["topo.events_per_s"] = metric{ratio(s.replayEvents, sum(replicaMs)/1e3), "1/s"}
	m["topo.alloc_kb_per_event"] = metric{ratio(s.replayAllocB/1e3, s.replayEvents), "kB"}
	tasks := t.hists["parallel.task_ms"]
	m["parallel.speedup"] = metric{ratio(tasks.Sum, sum(t.traced.rawMs)), "x"}
	minerLayers(t, m)
}

// finish re-runs item 0 and reports whether its β̂ table is
// identical to the timed run's.
func (s *topoSession) finish() []string {
	if s.first == nil {
		return nil
	}
	it, err := newTopoItem(s.seed, labelTimed, 0)
	if err != nil {
		return []string{err.Error()}
	}
	res, err := topo.EstimateReplicated(it.topology, topoConfig(), it.seed, topoReplicas)
	if err != nil {
		return []string{err.Error()}
	}
	if !reflect.DeepEqual(res.Betas(), s.first) {
		return []string{"topo-race item 0: β̂ table differs on a repeat run"}
	}
	return nil
}

func (s *topoSession) close() error { return nil }
