package explore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"safetynet/internal/campaign"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
	"safetynet/internal/sim"
)

func ptr[T any](v T) *T { return &v }

// space returns a small two-arm search space: one interval axis, two
// seeds per arm.
func space() campaign.Campaign {
	return campaign.Campaign{
		Base: scenario.Scenario{Workload: "barnes", WarmupCycles: 10_000, MeasureCycles: 50_000},
		Axes: []campaign.Axis{{Name: "interval", Points: []campaign.AxisPoint{
			{Label: "20k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(20_000))}},
			{Label: "40k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(40_000))}},
		}}},
		Seeds: &campaign.SeedRange{Start: 1, Count: 2},
	}
}

// small returns a minimal valid exploration over that space.
func small() *Exploration {
	return &Exploration{
		Name:       "small",
		Space:      space(),
		Objectives: []string{"availability", "ipc"},
		Strategy:   Strategy{Kind: KindExhaustive},
	}
}

func TestArmsAndSeeds(t *testing.T) {
	e := small()
	if got := e.Arms(); got != 2 {
		t.Fatalf("Arms = %d, want 2", got)
	}
	if got := e.seedsPerArm(); got != 2 {
		t.Fatalf("seedsPerArm = %d, want 2", got)
	}
	e.Space.Seeds = nil
	if e.Arms() != 2 || e.seedsPerArm() != 1 {
		t.Fatalf("seedless space: arms %d seeds %d", e.Arms(), e.seedsPerArm())
	}
}

func TestVocabulary(t *testing.T) {
	if got := Kinds(); !reflect.DeepEqual(got, []string{"exhaustive", "halving"}) {
		t.Fatalf("Kinds = %v", got)
	}
	want := []string{"availability", "ipc", "recovery_latency", "log_footprint"}
	if got := ObjectiveNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ObjectiveNames = %v, want %v", got, want)
	}
	for _, o := range Objectives() {
		if o.Extract == nil || o.Description == "" {
			t.Errorf("objective %q incomplete", o.Name)
		}
	}
}

// TestObjectiveExtractors: every objective is total and NaN-free, even
// on the zero-value and crashed results that never normally reach it.
func TestObjectiveExtractors(t *testing.T) {
	healthy := runner.RunResult{
		Instrs:           300,
		InstrsRolledBack: 100,
		IPC:              1.5,
		RecoveryCycles:   []sim.Time{100, 200},
		StoresLogged:     10,
		TransfersLogged:  5,
	}
	cases := []struct {
		name string
		res  runner.RunResult
		want map[string]float64
	}{
		{
			name: "healthy run",
			res:  healthy,
			want: map[string]float64{
				"availability":     0.75,
				"ipc":              1.5,
				"recovery_latency": 150,
				"log_footprint":    15,
			},
		},
		{
			name: "zero-value run (no progress, no recoveries)",
			res:  runner.RunResult{},
			want: map[string]float64{
				"availability":     0, // 0/0 guarded, not NaN
				"ipc":              0,
				"recovery_latency": 0, // empty latency list guarded
				"log_footprint":    0,
			},
		},
		{
			name: "crashed run",
			res:  runner.RunResult{Crashed: true, CrashCause: "kill-switch"},
			want: map[string]float64{
				"availability":     0,
				"ipc":              0,
				"recovery_latency": 0,
				"log_footprint":    0,
			},
		},
		{
			name: "all work rolled back",
			res:  runner.RunResult{InstrsRolledBack: 500},
			want: map[string]float64{
				"availability":     0,
				"ipc":              0,
				"recovery_latency": 0,
				"log_footprint":    0,
			},
		},
	}
	for _, c := range cases {
		for _, obj := range Objectives() {
			got := obj.Extract(c.res)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s: %s = %v, want finite", c.name, obj.Name, got)
				continue
			}
			if want, ok := c.want[obj.Name]; ok && got != want {
				t.Errorf("%s: %s = %v, want %v", c.name, obj.Name, got, want)
			}
		}
	}
}

func TestDominanceVector(t *testing.T) {
	objs := []Objective{
		{Name: "up", Maximize: true},
		{Name: "down", Maximize: false},
	}
	got := dominanceVector(objs, []float64{2, 3})
	if !reflect.DeepEqual(got, []float64{2, -3}) {
		t.Fatalf("dominanceVector = %v", got)
	}
}

// TestValidateRejections: the structural error matrix, including
// halving parameters on exhaustive.
func TestValidateRejections(t *testing.T) {
	cases := map[string]func(e *Exploration){
		"invalid space":       func(e *Exploration) { e.Space.Base.Workload = "" },
		"no objectives":       func(e *Exploration) { e.Objectives = nil },
		"unknown objective":   func(e *Exploration) { e.Objectives = []string{"vibes"} },
		"duplicate objective": func(e *Exploration) { e.Objectives = []string{"ipc", "ipc"} },
		"missing kind":        func(e *Exploration) { e.Strategy = Strategy{} },
		"unknown kind":        func(e *Exploration) { e.Strategy = Strategy{Kind: "simulated-annealing"} },
		"exhaustive with halving params": func(e *Exploration) {
			e.Strategy = Strategy{Kind: KindExhaustive, Eta: 2}
		},
		"halving eta 1": func(e *Exploration) {
			e.Strategy = Strategy{Kind: KindHalving, Eta: 1}
		},
		"halving negative finalists": func(e *Exploration) {
			e.Strategy = Strategy{Kind: KindHalving, Finalists: -1}
		},
		"halving seeds_per_round beyond arm seeds": func(e *Exploration) {
			e.Strategy = Strategy{Kind: KindHalving, SeedsPerRound: 3}
		},
	}
	for name, mutate := range cases {
		e := small()
		mutate(e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
	for _, kind := range Kinds() {
		e := small()
		e.Strategy = Strategy{Kind: kind}
		if err := e.Validate(); err != nil {
			t.Errorf("bare %s strategy invalid: %v", kind, err)
		}
	}
}

func TestStrategyDefaults(t *testing.T) {
	s := Strategy{Kind: KindHalving}
	if s.eta() != 2 || s.finalists() != 2 || s.seedsPerRound() != 1 {
		t.Fatalf("halving defaults: eta %d finalists %d seeds %d", s.eta(), s.finalists(), s.seedsPerRound())
	}
}

// TestEncodeParseFixedPoint: Parse(Encode(e)) reproduces e and reaches
// a byte fixed point.
func TestEncodeParseFixedPoint(t *testing.T) {
	e := small()
	e.Strategy = Strategy{Kind: KindHalving, Eta: 3, Finalists: 1, ScaleTo: 30_000, SeedsPerRound: 2}
	enc, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Parse(enc)
	if err != nil {
		t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
	}
	enc2, err := e2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("not a fixed point:\n1st: %s\n2nd: %s", enc, enc2)
	}
	if !reflect.DeepEqual(e.Strategy, e2.Strategy) {
		t.Fatalf("strategy round-trip: %+v vs %+v", e.Strategy, e2.Strategy)
	}
}

// TestParseRejections: strict decoding fails closed, and the retired
// bandit strategy's kind and keys (pulls, epsilon, the exploration
// seed) no longer parse.
func TestParseRejections(t *testing.T) {
	valid, err := small().Encode()
	if err != nil {
		t.Fatal(err)
	}
	strategy := func(fields string) string {
		return strings.Replace(string(valid), `"kind": "exhaustive"`, fields, 1)
	}
	cases := map[string]string{
		"unknown top-level field": `{"name": "x", "cheese": true}`,
		"trailing data":           string(valid) + `{"x": 1}`,
		"unknown strategy field":  strategy(`"kind": "exhaustive", "warp": 9`),
		"not json":                `hello`,
		"wrong objective type":    strings.Replace(string(valid), `"availability"`, `17`, 1),
		"bandit kind":             strategy(`"kind": "bandit"`),
		"pulls":                   strategy(`"kind": "halving", "pulls": 3`),
		"epsilon":                 strategy(`"kind": "halving", "epsilon": 0.5`),
		"exploration seed":        strings.Replace(string(valid), `"name": "small",`, `"name": "small", "seed": 1,`, 1),
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

// exampleExplorationFiles returns the checked-in exploration files.
func exampleExplorationFiles(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "explorations", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in exploration files found")
	}
	return paths
}

// TestCheckedInExplorationsParse: every example exploration loads and
// is stored in the canonical form Encode produces.
func TestCheckedInExplorationsParse(t *testing.T) {
	for _, p := range exampleExplorationFiles(t) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		enc, err := e.Encode()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(data, enc) {
			t.Errorf("%s is not in canonical form; expected:\n%s", p, enc)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}
