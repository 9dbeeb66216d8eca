package stats

import (
	"math"
	"reflect"
	"testing"
)

func TestDominates(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{0, 0}, true},
		{[]float64{1, 0}, []float64{0, 0}, true},
		{[]float64{0, 0}, []float64{0, 0}, false}, // equal: no strict improvement
		{[]float64{1, 0}, []float64{0, 1}, false}, // trade-off: incomparable
		{[]float64{0, 1}, []float64{1, 0}, false},
		{[]float64{0, 0}, []float64{1, 1}, false},
		{[]float64{nan, 2}, []float64{0, 0}, false}, // NaN never dominates
		{[]float64{1, 1}, []float64{nan, 0}, false}, // NaN never dominated
		{[]float64{1}, []float64{0, 0}, false},      // length mismatch
		{nil, nil, false},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestNondominatedRanks(t *testing.T) {
	pts := [][]float64{
		{3, 3}, // rank 0
		{2, 2}, // rank 1 (dominated only by {3,3})
		{1, 1}, // rank 2
		{3, 1}, // rank 0? {3,3} dominates (3>=3, 3>1) -> rank 1; {2,2} doesn't (2<3)
		{0, 4}, // rank 0 (nothing has >=4 in obj 2)
	}
	got := NondominatedRanks(pts)
	want := []int{0, 1, 2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NondominatedRanks = %v, want %v", got, want)
	}
}

func TestNondominatedRanksAllEqual(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	got := NondominatedRanks(pts)
	want := []int{0, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ranks = %v, want %v", got, want)
	}
}

func TestCrowdingDistances(t *testing.T) {
	// A four-point front on two objectives: the extremes of either
	// objective are boundaries (+Inf); the interior points accumulate
	// normalized neighbor gaps per objective.
	pts := [][]float64{
		{0, 3}, // boundary: min obj0, max obj1
		{1, 2}, // interior: (2-0)/3 + (3-1)/3
		{2, 1}, // interior: (3-1)/3 + (2-0)/3
		{3, 0}, // boundary: max obj0, min obj1
	}
	got := CrowdingDistances(pts)
	if !math.IsInf(got[0], 1) || !math.IsInf(got[3], 1) {
		t.Fatalf("boundaries not infinite: %v", got)
	}
	want := 2.0/3 + 2.0/3
	for _, i := range []int{1, 2} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("interior point %d distance = %v, want %v", i, got[i], want)
		}
	}
}

func TestCrowdingDistancesKeepsObjectiveExtremes(t *testing.T) {
	// The scenario the exploration tie-break exists for: one point is
	// weak on the first objective but the extreme of the second. Sorting
	// by the first objective would rank it last; crowding marks it a
	// boundary so truncation keeps it.
	pts := [][]float64{
		{0.40, 0.41}, // the second-objective extreme
		{0.51, 0.36},
		{1.00, 0.002},
		{1.00, 0.002}, // duplicate of the first-objective extreme
	}
	d := CrowdingDistances(pts)
	if !math.IsInf(d[0], 1) {
		t.Fatalf("second-objective extreme got finite distance %v", d[0])
	}
	// Exactly one of the duplicated extreme points is the sort boundary;
	// ties break by index, deterministically.
	if !math.IsInf(d[2], 1) && !math.IsInf(d[3], 1) {
		t.Fatalf("first-objective extreme got finite distances %v, %v", d[2], d[3])
	}
	d2 := CrowdingDistances(pts)
	if !reflect.DeepEqual(d, d2) {
		t.Fatalf("not deterministic: %v vs %v", d, d2)
	}
}

func TestCrowdingDistancesDegenerate(t *testing.T) {
	if got := CrowdingDistances(nil); len(got) != 0 {
		t.Fatalf("empty input = %v", got)
	}
	for _, pts := range [][][]float64{
		{{1, 2}},
		{{1, 2}, {3, 4}},
	} {
		for i, d := range CrowdingDistances(pts) {
			if !math.IsInf(d, 1) {
				t.Fatalf("%d points: index %d = %v, want +Inf", len(pts), i, d)
			}
		}
	}
	// A flat objective (every point equal) must not divide by zero; the
	// varying objective still separates the points.
	d := CrowdingDistances([][]float64{{5, 0}, {5, 1}, {5, 2}})
	if !math.IsInf(d[0], 1) || !math.IsInf(d[2], 1) {
		t.Fatalf("flat-objective boundaries: %v", d)
	}
	if math.IsNaN(d[1]) || math.IsInf(d[1], 0) {
		t.Fatalf("flat-objective interior = %v, want finite", d[1])
	}
}
