package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"safetynet/internal/campaign/report"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/runner"
	"safetynet/internal/scenario"
)

func ptr[T any](v T) *T { return &v }

// testCampaign is a small but fully featured matrix: 2 intervals × 2
// protocols × 2 variants × 3 seeds = 24 runs.
func testCampaign() *Campaign {
	return &Campaign{
		Name: "test",
		Base: scenario.Scenario{Workload: "barnes", WarmupCycles: 50_000, MeasureCycles: 200_000},
		Axes: []Axis{
			{Name: "interval", Points: []AxisPoint{
				{Label: "50k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(50_000))}},
				{Label: "100k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(100_000))}},
			}},
			{Name: "protocol", Points: []AxisPoint{
				{Label: "directory", Overrides: &scenario.Overrides{Protocol: ptr(config.ProtocolDirectory)}},
				{Label: "snoop", Overrides: &scenario.Overrides{Protocol: ptr(config.ProtocolSnoop)}},
			}},
		},
		Variants: []Variant{
			{Name: "fault-free"},
			{Name: "faulty", Faults: fault.Plan{fault.DropOnce{At: 120_000}}},
		},
		Seeds: &SeedRange{Start: 1, Count: 3, Stride: 7919},
	}
}

func TestExpandMatrixProduct(t *testing.T) {
	c := testCampaign()
	if got := c.Runs(); got != 24 {
		t.Fatalf("Runs() = %d, want 24", got)
	}
	runs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 24 {
		t.Fatalf("expanded %d runs, want 24", len(runs))
	}

	// Every run is uniquely labeled; the product covers every cell.
	seen := map[string]bool{}
	for _, r := range runs {
		if seen[r.Desc] {
			t.Fatalf("duplicate run %q", r.Desc)
		}
		seen[r.Desc] = true
		for _, key := range []string{"interval", "protocol", LabelVariant, LabelSeed} {
			if r.Label(key) == "" {
				t.Fatalf("run %d lacks label %s", r.Index, key)
			}
		}
	}

	// Deterministic order: seeds innermost, then variants, then the
	// last-declared axis, with the first axis outermost.
	if runs[0].Desc != "interval=50k protocol=directory variant=fault-free seed=1" {
		t.Fatalf("first run = %q", runs[0].Desc)
	}
	if runs[1].Label(LabelSeed) != "7920" {
		t.Fatalf("second run seed = %q, want 7920 (stride applied innermost)", runs[1].Label(LabelSeed))
	}
	if runs[3].Label(LabelVariant) != "faulty" {
		t.Fatalf("run 3 variant = %q, want faulty after 3 seeds", runs[3].Label(LabelVariant))
	}
	if runs[6].Label("protocol") != "snoop" {
		t.Fatalf("run 6 protocol = %q, want snoop after 2 variants x 3 seeds", runs[6].Label("protocol"))
	}
	if runs[12].Label("interval") != "100k" {
		t.Fatalf("run 12 interval = %q, want 100k after a full inner block", runs[12].Label("interval"))
	}

	// The assembled scenarios carry the merged deviations.
	last := runs[23]
	p, err := last.Scenario.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.CheckpointIntervalCycles != 100_000 || p.Protocol != config.ProtocolSnoop {
		t.Fatalf("last run params = interval %d protocol %q", p.CheckpointIntervalCycles, p.Protocol)
	}
	if p.Seed != 1+2*7919 {
		t.Fatalf("last run seed = %d", p.Seed)
	}
	if len(last.Scenario.Faults) != 1 {
		t.Fatalf("last run fault plan = %v", last.Scenario.Faults)
	}
}

func TestExpandSeedRanges(t *testing.T) {
	c := &Campaign{
		Base:  scenario.Scenario{Workload: "barnes", MeasureCycles: 100_000},
		Seeds: &SeedRange{Start: 10, Count: 4}, // stride defaults to 1
	}
	runs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, r := range runs {
		seeds = append(seeds, r.Label(LabelSeed))
		p, err := r.Scenario.Params()
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Label(LabelSeed); got != "" && p.Seed == 0 {
			t.Fatalf("run %d: seed override not applied", r.Index)
		}
	}
	if want := []string{"10", "11", "12", "13"}; !reflect.DeepEqual(seeds, want) {
		t.Fatalf("seeds = %v, want %v", seeds, want)
	}
}

// TestExpandWorkloadAxis: an axis can sweep the workload itself, and an
// unknown workload in a point is caught at expansion.
func TestExpandWorkloadAxis(t *testing.T) {
	c := &Campaign{
		Base: scenario.Scenario{Workload: "oltp", MeasureCycles: 100_000},
		Axes: []Axis{{Name: "workload", Points: []AxisPoint{
			{Label: "oltp", Workload: "oltp"},
			{Label: "jbb", Workload: "jbb"},
		}}},
	}
	runs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Scenario.Workload != "oltp" || runs[1].Scenario.Workload != "jbb" {
		t.Fatalf("workloads = %s, %s", runs[0].Scenario.Workload, runs[1].Scenario.Workload)
	}

	c.Axes[0].Points[1].Workload = "fortnite"
	if _, err := c.Expand(); err == nil || !strings.Contains(err.Error(), "workload=jbb") {
		t.Fatalf("unknown workload in a point must fail naming the run, got %v", err)
	}
}

// TestValidateRejections: the duplicate/conflict matrix.
func TestValidateRejections(t *testing.T) {
	base := scenario.Scenario{Workload: "barnes", MeasureCycles: 100_000}
	interval := func(v uint64) *scenario.Overrides {
		return &scenario.Overrides{CheckpointIntervalCycles: &v}
	}
	cases := map[string]*Campaign{
		"invalid base": {Base: scenario.Scenario{Workload: "barnes"}},
		"axis without name": {Base: base, Axes: []Axis{
			{Points: []AxisPoint{{Label: "x", Overrides: interval(1000)}}}}},
		"reserved axis name variant": {Base: base, Axes: []Axis{
			{Name: LabelVariant, Points: []AxisPoint{{Label: "x", Overrides: interval(1000)}}}}},
		"reserved axis name seed": {Base: base, Axes: []Axis{
			{Name: LabelSeed, Points: []AxisPoint{{Label: "x", Overrides: interval(1000)}}}}},
		"duplicate axis": {Base: base, Axes: []Axis{
			{Name: "a", Points: []AxisPoint{{Label: "x", Overrides: interval(1000)}}},
			{Name: "a", Points: []AxisPoint{{Label: "y", Overrides: interval(2000)}}}}},
		"axis without points": {Base: base, Axes: []Axis{{Name: "a"}}},
		"unlabeled point": {Base: base, Axes: []Axis{
			{Name: "a", Points: []AxisPoint{{Overrides: interval(1000)}}}}},
		"duplicate point label": {Base: base, Axes: []Axis{
			{Name: "a", Points: []AxisPoint{
				{Label: "x", Overrides: interval(1000)},
				{Label: "x", Overrides: interval(2000)}}}}},
		"empty point": {Base: base, Axes: []Axis{
			{Name: "a", Points: []AxisPoint{{Label: "x"}}}}},
		"axes scripting one field": {Base: base, Axes: []Axis{
			{Name: "a", Points: []AxisPoint{{Label: "x", Overrides: interval(1000)}}},
			{Name: "b", Points: []AxisPoint{{Label: "y", Overrides: interval(2000)}}}}},
		"two axes scripting workload": {Base: base, Axes: []Axis{
			{Name: "a", Points: []AxisPoint{{Label: "x", Workload: "oltp"}}},
			{Name: "b", Points: []AxisPoint{{Label: "y", Workload: "jbb"}}}}},
		"seed axis with seed range": {Base: base,
			Axes: []Axis{{Name: "a", Points: []AxisPoint{
				{Label: "x", Overrides: &scenario.Overrides{Seed: ptr(uint64(5))}}}}},
			Seeds: &SeedRange{Start: 1, Count: 2}},
		"unnamed variant":   {Base: base, Variants: []Variant{{}}},
		"duplicate variant": {Base: base, Variants: []Variant{{Name: "v"}, {Name: "v"}}},
		"base faults with variants": {
			Base:     scenario.Scenario{Workload: "barnes", MeasureCycles: 100_000, Faults: fault.Plan{fault.DropOnce{At: 1}}},
			Variants: []Variant{{Name: "v"}}},
		"zero seed count": {Base: base, Seeds: &SeedRange{Start: 1, Count: 0}},
	}
	for name, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}

	// The base campaign itself is fine.
	if err := (&Campaign{Base: base}).Validate(); err != nil {
		t.Fatalf("minimal campaign invalid: %v", err)
	}
}

// TestRunsOverflowRejected: a matrix whose product overflows the int
// range must be rejected by Validate (saturating at MaxRuns+1), not
// wrap negative and panic inside Expand's slice allocation.
func TestRunsOverflowRejected(t *testing.T) {
	c := &Campaign{Base: scenario.Scenario{Workload: "barnes", MeasureCycles: 100_000}}
	// 41 axes x 3 points: the raw product 3^41 wraps negative in int64
	// arithmetic, which would read as "under MaxRuns" without the
	// saturating multiply.
	for i := 0; i < 41; i++ {
		axis := Axis{Name: fmt.Sprintf("a%d", i)}
		for j := 0; j < 3; j++ {
			axis.Points = append(axis.Points, AxisPoint{
				Label:     fmt.Sprintf("p%d", j),
				Overrides: &scenario.Overrides{Seed: ptr(uint64(j))},
			})
		}
		c.Axes = append(c.Axes, axis)
	}
	if got := c.Runs(); got != MaxRuns+1 {
		t.Fatalf("Runs() = %d, want saturation at %d", got, MaxRuns+1)
	}
	// Validate fails (on the bound or on the duplicated Seed field),
	// and Expand returns that error instead of panicking.
	if err := c.Validate(); err == nil {
		t.Fatal("overflowing matrix must fail validation")
	}
	if _, err := c.Expand(); err == nil {
		t.Fatal("overflowing matrix must fail expansion")
	}
}

func TestParseStrict(t *testing.T) {
	cases := map[string]string{
		"unknown top-level field": `{"base": {"workload": "oltp", "measure_cycles": 1000}, "cheese": 1}`,
		"unknown axis field":      `{"base": {"workload": "oltp", "measure_cycles": 1000}, "axes": [{"name": "a", "points": [{"label": "x", "warp": 9}]}]}`,
		"unknown fault kind":      `{"base": {"workload": "oltp", "measure_cycles": 1000}, "variants": [{"name": "v", "faults": [{"kind": "gamma-ray", "at": 1}]}]}`,
		"trailing data":           `{"base": {"workload": "oltp", "measure_cycles": 1000}} {"x": 1}`,
		"missing base":            `{"name": "empty"}`,
	}
	for name, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

// TestEncodeParseFixedPoint: decode→encode→decode is a fixed point.
func TestEncodeParseFixedPoint(t *testing.T) {
	enc1, err := testCampaign().Encode()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(enc1)
	if err != nil {
		t.Fatalf("canonical encoding rejected: %v\n%s", err, enc1)
	}
	enc2, err := c2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc1) != string(enc2) {
		t.Fatalf("not a fixed point:\n1st: %s\n2nd: %s", enc1, enc2)
	}
}

func TestScaled(t *testing.T) {
	c := &Campaign{
		Base: scenario.Scenario{Workload: "barnes", WarmupCycles: 1_000_000, MeasureCycles: 4_000_000},
		Variants: []Variant{
			{Name: "faulty", Faults: fault.Plan{fault.DropEvery{Start: 2_000_000, Period: 500_000}}},
		},
	}
	s := c.Scaled(1_000_000) // factor 0.2
	if s.Base.WarmupCycles != 200_000 || s.Base.MeasureCycles != 800_000 {
		t.Fatalf("scaled phases = %d + %d", s.Base.WarmupCycles, s.Base.MeasureCycles)
	}
	ev := s.Variants[0].Faults[0].(fault.DropEvery)
	if ev.Start != 400_000 || ev.Period != 100_000 {
		t.Fatalf("scaled variant plan = %+v", ev)
	}
	// The original is untouched.
	orig := c.Variants[0].Faults[0].(fault.DropEvery)
	if orig.Start != 2_000_000 || orig.Period != 500_000 {
		t.Fatalf("Scaled mutated the original: %+v", orig)
	}
	if c.Base.MeasureCycles != 4_000_000 {
		t.Fatal("Scaled mutated the original phases")
	}
	// In-budget campaigns come back unchanged.
	same := c.Scaled(100_000_000)
	if !reflect.DeepEqual(same.Base, c.Base) {
		t.Fatal("in-budget campaign was modified")
	}
}

// TestScaledBaseFaultsCopied: scaling a campaign whose base carries the
// fault plan (no variants) must not rescale the original's events.
func TestScaledBaseFaultsCopied(t *testing.T) {
	c := &Campaign{
		Base: scenario.Scenario{
			Workload: "barnes", WarmupCycles: 1_000_000, MeasureCycles: 4_000_000,
			Faults: fault.Plan{fault.DropOnce{At: 2_500_000}},
		},
	}
	s := c.Scaled(1_000_000)
	if got := s.Base.Faults[0].(fault.DropOnce).At; got != 500_000 {
		t.Fatalf("scaled At = %d", got)
	}
	if got := c.Base.Faults[0].(fault.DropOnce).At; got != 2_500_000 {
		t.Fatalf("Scaled mutated the original plan: At = %d", got)
	}
}

// TestExecuteDeterministicAcrossWorkers: the acceptance property at
// package scope — a small campaign's text, JSON, and CSV reports are
// byte-identical between serial and sharded execution, and completions
// stream exactly once per run.
func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	c := &Campaign{
		Name: "determinism",
		Base: scenario.Scenario{Workload: "barnes", WarmupCycles: 30_000, MeasureCycles: 100_000},
		Axes: []Axis{{Name: "interval", Points: []AxisPoint{
			{Label: "50k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(50_000))}},
			{Label: "100k", Overrides: &scenario.Overrides{CheckpointIntervalCycles: ptr(uint64(100_000))}},
		}}},
		Variants: []Variant{
			{Name: "fault-free"},
			{Name: "faulty", Faults: fault.Plan{fault.DropOnce{At: 60_000}}},
		},
		Seeds: &SeedRange{Start: 1, Count: 2},
	}
	completions := 0
	serial, err := c.Execute(Options{Workers: 1, OnResult: func(done, total int, _ Run, _ runner.RunResult) {
		completions++
		if done != completions || total != 8 {
			t.Errorf("progress misreported: done=%d total=%d", done, total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if completions != 8 {
		t.Fatalf("streamed %d completions, want 8", completions)
	}
	sharded, err := c.Execute(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "csv"} {
		s, err := report.Encode(serial, format)
		if err != nil {
			t.Fatal(err)
		}
		p, err := report.Encode(sharded, format)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s, p) {
			t.Fatalf("%s report differs between 1 and 8 workers:\n--- serial ---\n%s\n--- sharded ---\n%s", format, s, p)
		}
	}
	if serial.Runs != 8 || serial.Crashes != 0 {
		t.Fatalf("report = %d runs, %d crashes", serial.Runs, serial.Crashes)
	}
	if len(serial.Axes) != 2 {
		t.Fatalf("breakdowns = %d, want interval + variant", len(serial.Axes))
	}
}

// TestExecuteSurfacesExpectFailures: an unmet per-variant expectation
// lands in the report with the failing run's matrix position.
func TestExecuteSurfacesExpectFailures(t *testing.T) {
	c := &Campaign{
		Name: "expectations",
		Base: scenario.Scenario{Workload: "barnes", MeasureCycles: 60_000},
		Variants: []Variant{
			// A fault-free run cannot recover even once.
			{Name: "impossible", Expect: &scenario.Expect{MinRecoveries: 1}},
		},
	}
	rep, err := c.Execute(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ExpectFailures) != 1 {
		t.Fatalf("ExpectFailures = %v, want 1 entry", rep.ExpectFailures)
	}
	if !strings.Contains(rep.ExpectFailures[0], "variant=impossible") {
		t.Fatalf("failure lacks matrix position: %q", rep.ExpectFailures[0])
	}
	if !strings.Contains(rep.Render(), "expectation failures") {
		t.Fatal("text report must surface expectation failures")
	}
}
