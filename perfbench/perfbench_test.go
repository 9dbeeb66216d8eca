package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 10, false}, // rank 10, nine samples beyond
		{20, 0.5, 10, true},  // rank 10, ten beyond
		{99, 0.9, 90, false}, // rank 90, nine beyond
		{100, 0.9, 90, true}, // rank 90, ten beyond
		{120, 0.9, 108, true},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
		if got := reportedPercentile(seq(c.n), c.q); !c.ok && got != 0 {
			t.Errorf("reportedPercentile(%d samples, %v) = %v; a withheld percentile must read 0", c.n, c.q, got)
		}
	}
}

// TestCacheRatiosTakeLoadsAsBase checks the cache hit ratios against a
// hand-computed counter set: the controller counts hits on loads only,
// so stores must not enter any base.
func TestCacheRatiosTakeLoadsAsBase(t *testing.T) {
	// 1000 loads: 700 L1 hits, 200 L2 hits, 100 misses.
	ms := metricSet{}
	putLayers(ms, &layerCounters{loads: 1000, l1Hits: 700, l2Hits: 200, misses: 100})
	for name, want := range map[string]float64{
		"cache.l1_accesses":  1000,
		"cache.l1_hit_ratio": 0.7,
		"cache.l2_accesses":  300,
		"cache.l2_hit_ratio": 200.0 / 300,
	} {
		if got := ms[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// isRatio reports whether a metric divides one quantity by another. A
// throughput (per host second) divides by the run's own duration and
// needs no separate base.
func isRatio(name string) bool {
	if strings.HasSuffix(name, "_per_s") {
		return false
	}
	for _, s := range []string{"_per_", "ratio", "share", "frac", "_p50", "_p90"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

func TestEveryRatioCarriesItsBase(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		if declared[d.name] {
			t.Errorf("%s declared twice", d.name)
		}
		declared[d.name] = true
	}
	for _, d := range perLayer {
		switch {
		case isRatio(d.name) && d.base == "":
			t.Errorf("ratio %s names no base", d.name)
		case !isRatio(d.name) && d.base != "":
			t.Errorf("%s is not a ratio but names base %s", d.name, d.base)
		case d.base != "" && !declared[d.base]:
			t.Errorf("%s's base %s is not a reported metric", d.name, d.base)
		}
	}
}

func TestEveryInternalPackageIsMapped(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, isLayer := layerOf[e.Name()]
		_, excluded := notLayer[e.Name()]
		switch {
		case isLayer && excluded:
			t.Errorf("internal/%s is both a layer and not a layer", e.Name())
		case !isLayer && !excluded:
			t.Errorf("internal/%s is unmapped: add it to layerOf or notLayer in profile.go", e.Name())
		case isLayer && !known[l]:
			t.Errorf("internal/%s maps to %q, which is not in layers", e.Name(), l)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"safetynet/internal/cache.(*Array).Lookup", "safetynet/internal/protocol.(*CacheController).FastAccess"}, "cache"},
		{[]string{"runtime.mallocgc", "safetynet/internal/proc.(*Processor).next.func1"}, "proc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc", "safetynet/internal/cache.NewArray"}, "gc"},
		{[]string{"safetynet/internal/fault.DropEvery.Arm.func1", "safetynet/internal/network.(*Network).Send"}, "network"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "unattributed"},
		{[]string{"main.probeCache"}, "unattributed"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "dispatch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "RunCtx", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "RunCtx", Start: 20, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]int64{"dispatch": 60, "RunCtx": 20 + 20, "inner": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric tables must match.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the table %d", len(c.file), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if f := c.file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %+v, the table says %+v", i, f, d)
			}
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny horizon
// and checks that each emits exactly the metrics BENCHMARK.json names,
// with zero failed operations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	names := func(defs []struct{ Name, Unit, Better string }) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	want := map[bool][]string{false: names(bf.EndToEnd), true: names(bf.PerLayer)}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 0.1, trace: trace, root: "..", quick: true,
				spans: filepath.Join(t.TempDir(), "spans.json")}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want[trace], " ") {
				t.Errorf("%s trace=%v emits %v, want %v", w.Name, trace, got, want[trace])
			}
			if trace {
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
				}
			}
		}
	}
}
