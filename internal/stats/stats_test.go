package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStddev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := s.Stddev(); math.Abs(got-2.138) > 0.001 {
		t.Fatalf("stddev = %v, want ~2.138 (sample stddev)", got)
	}
	if s.N() != 8 || s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("N/Min/Max = %d/%v/%v", s.N(), s.Min(), s.Max())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample must report zeros")
	}
	one := Sample{}
	one.Add(3)
	if one.Stddev() != 0 {
		t.Fatal("single observation has zero stddev")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 1.0, 10); got != "#####" {
		t.Fatalf("Bar = %q", got)
	}
	if got := Bar(2.0, 1.0, 10); got != "##########" {
		t.Fatalf("overflow must clamp: %q", got)
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 1, 10) != "" {
		t.Fatal("degenerate inputs must render empty")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "v"}, [][]string{{"longer", "1"}, {"x", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[1], "----") {
		t.Fatalf("bad table:\n%s", out)
	}
}

// Property: stddev is invariant under translation and scales linearly.
func TestStddevProperties(t *testing.T) {
	f := func(vals []float64, shift float64) bool {
		if len(vals) < 2 || len(vals) > 50 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		var a, b Sample
		for _, v := range vals {
			a.Add(v)
			b.Add(v + shift)
		}
		return math.Abs(a.Stddev()-b.Stddev()) < 1e-6*(1+a.Stddev())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for _, v := range []float64{15, 20, 35, 40, 50} {
		s.Add(v)
	}
	cases := map[float64]float64{
		0:   15,
		25:  20,
		50:  35,
		75:  40,
		100: 50,
		40:  29, // rank 1.6 between 20 and 35
	}
	for p, want := range cases {
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if s.Median() != 35 {
		t.Errorf("Median = %v, want 35", s.Median())
	}
	// Out-of-range p clamps instead of extrapolating.
	if s.Percentile(-10) != 15 || s.Percentile(200) != 50 {
		t.Error("out-of-range percentile must clamp")
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	var empty Sample
	if empty.Percentile(50) != 0 || empty.Median() != 0 {
		t.Fatal("empty sample percentile must be 0")
	}
	one := Sample{}
	one.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if one.Percentile(p) != 7 {
			t.Fatalf("n=1 Percentile(%v) = %v, want 7", p, one.Percentile(p))
		}
	}
	equal := Sample{}
	for i := 0; i < 5; i++ {
		equal.Add(3.5)
	}
	if equal.Percentile(5) != 3.5 || equal.Percentile(95) != 3.5 {
		t.Fatal("all-equal sample percentiles must equal the value")
	}
	// Percentile must not mutate the insertion order Values reports.
	unsorted := Sample{}
	for _, v := range []float64{3, 1, 2} {
		unsorted.Add(v)
	}
	unsorted.Percentile(50)
	if vals := unsorted.Values(); vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("Percentile reordered the sample: %v", vals)
	}
}

func TestBootstrapCI(t *testing.T) {
	if lo, hi := BootstrapCI(nil, 0.95); lo != 0 || hi != 0 {
		t.Fatalf("empty CI = (%v, %v), want (0, 0)", lo, hi)
	}
	if lo, hi := BootstrapCI([]float64{4.2}, 0.95); lo != 4.2 || hi != 4.2 {
		t.Fatalf("n=1 CI = (%v, %v), want (4.2, 4.2)", lo, hi)
	}
	if lo, hi := BootstrapCI([]float64{2, 2, 2, 2}, 0.95); lo != 2 || hi != 2 {
		t.Fatalf("all-equal CI = (%v, %v), want (2, 2)", lo, hi)
	}

	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	lo, hi := BootstrapCI(vals, 0.95)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatal("CI must be NaN-free")
	}
	if lo >= hi {
		t.Fatalf("CI = (%v, %v): lower bound must be below upper", lo, hi)
	}
	mean := 5.5
	if lo > mean || hi < mean {
		t.Fatalf("CI (%v, %v) must bracket the sample mean %v", lo, hi, mean)
	}
	if lo < 1 || hi > 10 {
		t.Fatalf("CI (%v, %v) outside the data range", lo, hi)
	}

	// Deterministic: identical inputs give identical intervals.
	lo2, hi2 := BootstrapCI(vals, 0.95)
	if lo != lo2 || hi != hi2 {
		t.Fatal("BootstrapCI is not deterministic")
	}

	// A wider confidence level gives a wider (or equal) interval.
	lo99, hi99 := BootstrapCI(vals, 0.99)
	if hi99-lo99 < hi-lo {
		t.Fatalf("99%% CI (%v, %v) narrower than 95%% CI (%v, %v)", lo99, hi99, lo, hi)
	}

	// Degenerate conf falls back to 95% instead of collapsing.
	loD, hiD := BootstrapCI(vals, 0)
	if loD != lo || hiD != hi {
		t.Fatal("conf=0 must fall back to the 95% default")
	}
}

// TestSummarizeNaNFree: every field of the summary is finite for the
// empty sample, a single observation, and an all-equal sample.
func TestSummarizeNaNFree(t *testing.T) {
	samples := map[string]*Sample{
		"empty":     {},
		"single":    {},
		"all-equal": {},
	}
	samples["single"].Add(3)
	for i := 0; i < 4; i++ {
		samples["all-equal"].Add(1.5)
	}
	for name, s := range samples {
		sum := s.Summarize()
		for field, v := range map[string]float64{
			"Mean": sum.Mean, "Stddev": sum.Stddev, "Min": sum.Min, "Max": sum.Max,
			"Median": sum.Median, "P5": sum.P5, "P95": sum.P95, "CILo": sum.CILo, "CIHi": sum.CIHi,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: Summary.%s = %v, want finite", name, field, v)
			}
		}
	}
	s := samples["single"]
	sum := s.Summarize()
	if sum.N != 1 || sum.Mean != 3 || sum.Median != 3 || sum.CILo != 3 || sum.CIHi != 3 {
		t.Fatalf("single-observation summary = %+v", sum)
	}
}

func TestSafeDiv(t *testing.T) {
	if got := SafeDiv(6, 3); got != 2 {
		t.Fatalf("SafeDiv(6,3) = %v", got)
	}
	if got := SafeDiv(1, 0); got != 0 {
		t.Fatalf("SafeDiv(1,0) = %v", got)
	}
	if got := SafeDiv(0, 0); got != 0 {
		t.Fatalf("SafeDiv(0,0) = %v", got)
	}
}
