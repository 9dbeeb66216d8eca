package scenario

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files from the current encoding")

func ptr[T any](v T) *T { return &v }

// goldenScenario exercises every top-level field: metadata, overrides,
// both phases, a multi-event fault plan, and expectations.
func goldenScenario() *Scenario {
	return &Scenario{
		Name:        "golden",
		Description: "pin the scenario wire format",
		Workload:    "jbb",
		Overrides: &Overrides{
			Protocol:                 ptr(config.ProtocolDirectory),
			SafetyNetEnabled:         ptr(true),
			CheckpointIntervalCycles: ptr(uint64(50_000)),
			CLBBytes:                 ptr(256 << 10),
			Seed:                     ptr(uint64(42)),
		},
		WarmupCycles:  1_000_000,
		MeasureCycles: 4_000_000,
		Faults: fault.Plan{
			fault.DropEvery{Start: 1_500_000, Period: 1_000_000},
			fault.KillSwitch{Node: 5, Axis: topology.EW, At: 2_000_000},
		},
		Expect: &Expect{MinRecoveries: 1},
	}
}

func TestScenarioGoldenEncoding(t *testing.T) {
	path := filepath.Join("testdata", "scenario.golden.json")
	got, err := goldenScenario().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted from golden file %s:\n got: %s\nwant: %s", path, got, want)
	}

	back, err := Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenScenario()) {
		t.Fatalf("golden decode = %+v, want %+v", back, goldenScenario())
	}
}

// TestRoundTripFixedPoint: decode→encode→decode is a fixed point for the
// golden scenario and for every checked-in example scenario.
func TestRoundTripFixedPoint(t *testing.T) {
	var inputs [][]byte
	enc, err := goldenScenario().Encode()
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, enc)
	for _, p := range exampleScenarioFiles(t) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, data)
	}
	for _, data := range inputs {
		s1, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		enc1, err := s1.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Parse(enc1)
		if err != nil {
			t.Fatal(err)
		}
		enc2, err := s2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("not a fixed point:\n1st: %s\n2nd: %s", enc1, enc2)
		}
	}
}

// exampleScenarioFiles returns the checked-in scenario files, which the
// parser tests and the fuzz corpus both feed on.
func exampleScenarioFiles(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in scenario files found")
	}
	return paths
}

// TestCheckedInScenariosParse: every example scenario file loads and
// its canonical encoding matches the checked-in bytes, so the files stay
// in the canonical form Encode produces.
func TestCheckedInScenariosParse(t *testing.T) {
	for _, p := range exampleScenarioFiles(t) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !bytes.Equal(data, enc) {
			t.Errorf("%s is not in canonical form; expected:\n%s", p, enc)
		}
	}
}

func TestParseUnknownFaultKind(t *testing.T) {
	_, err := Parse([]byte(`{
  "workload": "oltp",
  "measure_cycles": 1000,
  "faults": [{"kind": "gamma-ray", "at": 5}]
}`))
	var uk *fault.UnknownKindError
	if !errors.As(err, &uk) {
		t.Fatalf("err = %v, want *fault.UnknownKindError", err)
	}
	if uk.Kind != "gamma-ray" {
		t.Fatalf("Kind = %q", uk.Kind)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown top-level field": `{"workload": "oltp", "measure_cycles": 1, "cheese": 9}`,
		"unknown override":        `{"workload": "oltp", "measure_cycles": 1, "overrides": {"warp_factor": 9}}`,
		"missing workload":        `{"measure_cycles": 1000}`,
		"unknown workload":        `{"workload": "fortnite", "measure_cycles": 1000}`,
		"zero measure":            `{"workload": "oltp"}`,
		"invalid config":          `{"workload": "oltp", "measure_cycles": 1, "overrides": {"num_nodes": 0}}`,
		"empty l1":                `{"workload": "oltp", "measure_cycles": 1000, "overrides": {"l1_bytes": 0}}`,
		"bad protocol":            `{"workload": "oltp", "measure_cycles": 1, "overrides": {"protocol": "token"}}`,
		"trailing data":           `{"workload": "oltp", "measure_cycles": 1} {"again": true}`,
	}
	for name, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

// TestOverridesMirrorParams: every Overrides field must name an existing
// config.Params field of the matching type, so apply cannot drift from
// the configuration it scripts.
func TestOverridesMirrorParams(t *testing.T) {
	ot := reflect.TypeOf(Overrides{})
	pt := reflect.TypeOf(config.Params{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		pf, ok := pt.FieldByName(f.Name)
		if !ok {
			t.Errorf("Overrides.%s has no config.Params counterpart", f.Name)
			continue
		}
		if f.Type.Kind() != reflect.Pointer || f.Type.Elem() != pf.Type {
			t.Errorf("Overrides.%s is %v, want *%v", f.Name, f.Type, pf.Type)
		}
		tag := f.Tag.Get("json")
		if tag == "" || !strings.HasSuffix(tag, ",omitempty") {
			t.Errorf("Overrides.%s needs a json tag with omitempty, got %q", f.Name, tag)
		}
	}
}

func TestOverridesApply(t *testing.T) {
	s := &Scenario{
		Workload:      "oltp",
		MeasureCycles: 1_000_000,
		Overrides: &Overrides{
			Protocol:                 ptr(config.ProtocolSnoop),
			NumNodes:                 ptr(8),
			CheckpointIntervalCycles: ptr(uint64(200_000)),
			Seed:                     ptr(uint64(99)),
		},
	}
	p, err := s.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Protocol != config.ProtocolSnoop || p.NumNodes != 8 || p.Seed != 99 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	if p.CheckpointIntervalCycles != 200_000 {
		t.Fatalf("interval = %d", p.CheckpointIntervalCycles)
	}
	// Normalize kept the dependent knobs consistent with the larger
	// interval: the default 600k watchdog already exceeds it, but the
	// default 100k signoff must not be left below... (signoff may be
	// smaller; only signoff > interval is clamped). The watchdog rule:
	if p.ValidationWatchdogCycles <= p.CheckpointIntervalCycles {
		t.Fatalf("watchdog %d not normalized against interval %d",
			p.ValidationWatchdogCycles, p.CheckpointIntervalCycles)
	}
	// Defaults untouched where no override was given.
	if p.CLBBytes != config.Default().CLBBytes {
		t.Fatalf("CLBBytes drifted to %d", p.CLBBytes)
	}
}

// TestParamsFrom: overrides assemble over an arbitrary base, not just
// the Table 2 defaults, so campaign-defined experiment grids honor the
// caller's configuration.
func TestParamsFrom(t *testing.T) {
	base := config.Default()
	base.CLBBytes = 128 << 10
	base.Seed = 77
	s := &Scenario{
		Workload:      "oltp",
		MeasureCycles: 1_000,
		Overrides:     &Overrides{Seed: ptr(uint64(5))},
	}
	p, err := s.ParamsFrom(base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 5 {
		t.Fatalf("override not applied: seed = %d", p.Seed)
	}
	if p.CLBBytes != 128<<10 {
		t.Fatalf("base not honored: CLBBytes = %d", p.CLBBytes)
	}
}

func TestOverridesMerge(t *testing.T) {
	a := &Overrides{Seed: ptr(uint64(1)), CLBBytes: ptr(64 << 10)}
	b := &Overrides{Seed: ptr(uint64(2)), NumNodes: ptr(8)}
	m := a.Merge(b)
	if *m.Seed != 2 || *m.CLBBytes != 64<<10 || *m.NumNodes != 8 {
		t.Fatalf("merge = %+v", m)
	}
	// The inputs' own field sets are untouched (field pointers are
	// shared — overrides are treated as immutable once built).
	if *a.Seed != 1 || a.NumNodes != nil {
		t.Fatalf("Merge mutated the receiver: %+v", a)
	}

	if got := (*Overrides)(nil).Merge(nil); got != nil {
		t.Fatalf("nil.Merge(nil) = %+v, want nil", got)
	}
	if got := (*Overrides)(nil).Merge(b); got == nil || *got.Seed != 2 {
		t.Fatalf("nil.Merge(b) = %+v", got)
	}
	if got := a.Merge(nil); got == nil || *got.Seed != 1 {
		t.Fatalf("a.Merge(nil) = %+v", got)
	}
}

func TestOverridesFieldsSet(t *testing.T) {
	if got := (*Overrides)(nil).FieldsSet(); got != nil {
		t.Fatalf("nil FieldsSet = %v", got)
	}
	o := &Overrides{Seed: ptr(uint64(1)), Protocol: ptr(config.ProtocolSnoop)}
	got := o.FieldsSet()
	if !reflect.DeepEqual(got, []string{"Protocol", "Seed"}) {
		t.Fatalf("FieldsSet = %v (declaration order expected)", got)
	}
}

func TestExpectCheck(t *testing.T) {
	var nilExp *Expect
	if err := nilExp.Check(true, 0); err != nil {
		t.Fatalf("nil expect must pass, got %v", err)
	}
	if err := (&Expect{Crash: true}).Check(true, 0); err != nil {
		t.Fatal(err)
	}
	if err := (&Expect{Crash: true}).Check(false, 0); err == nil {
		t.Fatal("surviving a crash expectation must fail")
	}
	if err := (&Expect{}).Check(true, 0); err == nil {
		t.Fatal("crashing a survive expectation must fail")
	}
	if err := (&Expect{MinRecoveries: 2}).Check(false, 1); err == nil {
		t.Fatal("too few recoveries must fail")
	}
	if err := (&Expect{MinRecoveries: 2}).Check(false, 2); err != nil {
		t.Fatal(err)
	}
}

func TestScaleTo(t *testing.T) {
	s := &Scenario{
		Workload:      "oltp",
		WarmupCycles:  1_000_000,
		MeasureCycles: 4_000_000,
		Faults: fault.Plan{
			fault.DropOnce{At: 1_000_000},
			fault.DropEvery{Start: 2_000_000, Period: 500_000},
			fault.KillSwitch{Node: 5, Axis: topology.EW, At: 2_500_000},
		},
	}
	s.ScaleTo(1_000_000) // factor 0.2
	if s.WarmupCycles != 200_000 || s.MeasureCycles != 800_000 {
		t.Fatalf("phases = %d + %d", s.WarmupCycles, s.MeasureCycles)
	}
	if d := s.Faults[0].(fault.DropOnce); d.At != 200_000 {
		t.Fatalf("DropOnce.At = %d", d.At)
	}
	if d := s.Faults[1].(fault.DropEvery); d.Start != 400_000 || d.Period != 100_000 {
		t.Fatalf("DropEvery = %+v", d)
	}
	if k := s.Faults[2].(fault.KillSwitch); k.At != 500_000 || k.Node != 5 {
		t.Fatalf("KillSwitch = %+v", k)
	}

	// Already within budget: untouched.
	before := *s
	s.ScaleTo(10_000_000)
	if !reflect.DeepEqual(*s, before) {
		t.Fatal("in-budget scenario was modified")
	}

	// Nonzero values never scale to zero.
	tiny := &Scenario{WarmupCycles: 1, MeasureCycles: 10, Faults: fault.Plan{fault.DropOnce{At: 3}}}
	tiny.ScaleTo(2)
	if tiny.WarmupCycles == 0 || tiny.MeasureCycles == 0 || tiny.Faults[0].(fault.DropOnce).At == 0 {
		t.Fatalf("scaled to zero: %+v", tiny)
	}
}

// TestScaleCoversEveryFaultKind: scaleEvent must rescale every fault
// kind the wire format knows; a kind it silently passed through would
// keep its absolute schedule outside a scaled horizon and never fire.
// Adding a kind to fault.Kinds() fails this test until both the map
// below and scaleEvent handle it.
func TestScaleCoversEveryFaultKind(t *testing.T) {
	const at = 1_000_000
	events := map[string]fault.Event{
		fault.KindDropOnce:      fault.DropOnce{At: at},
		fault.KindDropEvery:     fault.DropEvery{Start: at, Period: at},
		fault.KindCorruptOnce:   fault.CorruptOnce{At: at},
		fault.KindMisrouteOnce:  fault.MisrouteOnce{At: at},
		fault.KindDuplicateOnce: fault.DuplicateOnce{At: at},
		fault.KindKillSwitch:    fault.KillSwitch{Node: 5, Axis: topology.EW, At: at},
	}
	for _, kind := range fault.Kinds() {
		ev, ok := events[kind]
		if !ok {
			t.Errorf("fault kind %q missing here and (probably) in scaleEvent — extend both", kind)
			continue
		}
		if scaled := scaleEvent(ev, 0.5); reflect.DeepEqual(scaled, ev) {
			t.Errorf("%s: scaleEvent left the event untouched — extend its switch", kind)
		}
	}
	if len(events) != len(fault.Kinds()) {
		t.Errorf("test covers %d kinds, fault.Kinds() lists %d", len(events), len(fault.Kinds()))
	}
}
