package miner

import (
	"math"
	"testing"

	"minegame/internal/numeric"
)

func TestClassifyExactDedup(t *testing.T) {
	budgets := []float64{200, 150, 200, 150, 150, 300}
	cp := ClassifyExact(budgets)
	if cp.N() != 6 {
		t.Fatalf("N = %d, want 6", cp.N())
	}
	if cp.K() != 3 {
		t.Fatalf("K = %d, want 3", cp.K())
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := []Class{{150, 3}, {200, 2}, {300, 1}}
	for k, c := range cp.Classes {
		if c != want[k] {
			t.Fatalf("class %d = %+v, want %+v", k, c, want[k])
		}
	}
	if cp.BudgetSpread() != 0 {
		t.Fatalf("exact dedup reported spread %g", cp.BudgetSpread())
	}
	if cp.CompressRatio() != 2 {
		t.Fatalf("compress ratio = %g, want 2", cp.CompressRatio())
	}
	// Index preserves the original order through Expand.
	reqs := []numeric.Point2{{E: 1, C: 10}, {E: 2, C: 20}, {E: 3, C: 30}}
	prof := cp.Expand(reqs)
	if len(prof) != 6 {
		t.Fatalf("expanded to %d miners", len(prof))
	}
	for i, b := range budgets {
		k := cp.ClassOf(i)
		if cp.Classes[k].Budget != b {
			t.Fatalf("miner %d classed into budget %g, want %g", i, cp.Classes[k].Budget, b)
		}
		if prof[i] != reqs[k] {
			t.Fatalf("miner %d expanded to %+v, want %+v", i, prof[i], reqs[k])
		}
	}
	got := cp.Budgets()
	for i := range budgets {
		if got[i] != budgets[i] {
			t.Fatalf("Budgets()[%d] = %g, want %g", i, got[i], budgets[i])
		}
	}
}

func TestClassifyQuantileBinning(t *testing.T) {
	n := 100
	budgets := make([]float64, n)
	for i := range budgets {
		budgets[i] = 100 + float64(i) // 100 distinct values
	}
	cp := ClassifyQuantile(budgets, 4)
	if cp.K() != 4 {
		t.Fatalf("K = %d, want 4", cp.K())
	}
	if cp.N() != n {
		t.Fatalf("N = %d, want %d", cp.N(), n)
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Each bin holds 25 consecutive values; mean of 100..124 is 112 etc.
	wantReps := []float64{112, 137, 162, 187}
	for k, c := range cp.Classes {
		if c.Count != 25 {
			t.Fatalf("class %d count %d, want 25", k, c.Count)
		}
		if math.Abs(c.Budget-wantReps[k]) > 1e-12 {
			t.Fatalf("class %d rep %g, want %g", k, c.Budget, wantReps[k])
		}
	}
	// Spread: farthest member from a bin mean is 12 (100 vs 112).
	if math.Abs(cp.BudgetSpread()-12) > 1e-12 {
		t.Fatalf("spread = %g, want 12", cp.BudgetSpread())
	}
	// Every miner's recorded class covers its true budget within spread.
	for i, b := range budgets {
		rep := cp.Classes[cp.ClassOf(i)].Budget
		if math.Abs(b-rep) > cp.BudgetSpread()+1e-12 {
			t.Fatalf("miner %d: |%g - %g| exceeds spread %g", i, b, rep, cp.BudgetSpread())
		}
	}
}

// TestClassifyQuantileTiedBinsStaySorted pins the ordering of bins cut
// through a run of equal budgets: the two all-0.1 bins' means round to
// 0.1 + 1 ulp (three members) and 0.1 (two), so the second adopts the
// first's representative and the classes still ascend.
func TestClassifyQuantileTiedBinsStaySorted(t *testing.T) {
	budgets := []float64{0.01, 0.02, 0.1, 0.1, 0.1, 0.1, 0.1, 0.5, 0.6, 0.7}
	cp := ClassifyQuantile(budgets, 4)
	if err := cp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantCounts := []int{2, 3, 2, 3}
	for k, c := range cp.Classes {
		if c.Count != wantCounts[k] {
			t.Fatalf("class %d count %d, want %d", k, c.Count, wantCounts[k])
		}
	}
	if cp.Classes[1].Budget == 0.1 || cp.Classes[2].Budget != cp.Classes[1].Budget { //lint:allow floateq pins the one-ulp rounding of a bin mean
		t.Fatalf("tied bins' reps %v, %v: want both the three-member mean", cp.Classes[1].Budget, cp.Classes[2].Budget)
	}
	for i, b := range budgets {
		if rep := cp.Classes[cp.ClassOf(i)].Budget; math.Abs(b-rep) > cp.BudgetSpread() {
			t.Fatalf("miner %d: |%g - %g| exceeds spread %g", i, b, rep, cp.BudgetSpread())
		}
	}
}

func TestClassifyQuantileFallsBackToExact(t *testing.T) {
	budgets := []float64{100, 200, 100, 200}
	cp := ClassifyQuantile(budgets, 10)
	if cp.K() != 2 || cp.BudgetSpread() != 0 {
		t.Fatalf("expected exact dedup (K=2, spread 0), got K=%d spread=%g", cp.K(), cp.BudgetSpread())
	}
}

func TestFromClassesMergesAndOrders(t *testing.T) {
	cp, err := FromClasses([]Class{{Budget: 300, Count: 2}, {Budget: 100, Count: 5}, {Budget: 300, Count: 1}})
	if err != nil {
		t.Fatalf("FromClasses: %v", err)
	}
	if cp.K() != 2 || cp.N() != 8 {
		t.Fatalf("K=%d N=%d, want 2/8", cp.K(), cp.N())
	}
	if cp.Classes[0] != (Class{100, 5}) || cp.Classes[1] != (Class{300, 3}) {
		t.Fatalf("classes = %+v", cp.Classes)
	}
	// Class-major expansion order.
	prof := cp.Expand([]numeric.Point2{{E: 1}, {E: 2}})
	for i := 0; i < 5; i++ {
		if prof[i].E != 1 {
			t.Fatalf("miner %d in class-major order should play class 0", i)
		}
	}
	for i := 5; i < 8; i++ {
		if prof[i].E != 2 {
			t.Fatalf("miner %d in class-major order should play class 1", i)
		}
		if cp.ClassOf(i) != 1 {
			t.Fatalf("ClassOf(%d) = %d, want 1", i, cp.ClassOf(i))
		}
	}

	if _, err := FromClasses(nil); err == nil {
		t.Fatal("empty class list should error")
	}
	if _, err := FromClasses([]Class{{Budget: -1, Count: 3}}); err == nil {
		t.Fatal("negative budget should error")
	}
	if _, err := FromClasses([]Class{{Budget: 10, Count: 0}}); err == nil {
		t.Fatal("zero count should error")
	}
}

func TestClassedAggregateMatchesExpanded(t *testing.T) {
	budgets := []float64{150, 150, 200, 250, 250, 250, 90}
	cp := ClassifyExact(budgets)
	reqs := make([]numeric.Point2, cp.K())
	for k := range reqs {
		reqs[k] = numeric.Point2{E: 1.5 * float64(k+1), C: 0.75 * float64(k+1)}
	}
	classed := cp.Aggregate(reqs)
	full := cp.Expand(reqs).Aggregate()
	if math.Abs(classed.Edge-full.Edge) > 1e-12 || math.Abs(classed.Cloud-full.Cloud) > 1e-12 {
		t.Fatalf("classed totals %+v != expanded totals %+v", classed, full)
	}
}

func TestExpandLengthMismatch(t *testing.T) {
	cp := ClassifyExact([]float64{1, 2, 3})
	if cp.Expand([]numeric.Point2{{}}) != nil {
		t.Fatal("Expand with wrong K should return nil")
	}
	agg := cp.Aggregate([]numeric.Point2{{E: 5, C: 5}})
	if agg.Edge != 0 || agg.Cloud != 0 {
		t.Fatal("Aggregate with wrong K should return zero totals")
	}
}

func TestClassifyEmpty(t *testing.T) {
	cp := ClassifyExact(nil)
	if cp.N() != 0 || cp.K() != 0 || cp.CompressRatio() != 0 {
		t.Fatalf("empty classification: %+v", cp)
	}
	if err := cp.Validate(); err == nil {
		t.Fatal("empty population should fail Validate")
	}
}
