// Package scenario defines the declarative, JSON-serializable
// description of one simulation run: which workload runs on which
// coherence backend, how the target-system configuration deviates from
// the paper's Table 2 defaults, how long the warmup and measurement
// phases last, which faults are injected when, and (optionally) what the
// run is expected to produce. Scenario files are the data counterpart of
// the paper's evaluation grid — workload × fault schedule × checkpoint
// interval × protocol — so a scenario can be checked in, diffed, and
// replayed without writing Go.
//
// The encoding round-trips losslessly: Parse is strict (unknown fields
// and unknown fault kinds are rejected, the latter with a typed
// *fault.UnknownKindError) and Encode is canonical, so
// decode→encode→decode is a fixed point. The facade loads scenarios with
// safetynet.LoadScenario and executes them with Scenario.Run on either
// backend.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"safetynet/internal/campaign/report"
	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/sim"
	"safetynet/internal/workload"
)

// Scenario is one declarative run description. The zero value is not
// runnable; at minimum Workload and MeasureCycles must be set.
type Scenario struct {
	// Name and Description identify the scenario in listings and logs;
	// neither affects execution.
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Workload names the preset every processor runs (see
	// workload.Names).
	Workload string `json:"workload"`
	// Overrides deviates from the paper's Table 2 default configuration;
	// nil runs the defaults. The protocol axis (directory vs snoop), the
	// seed, and the SafetyNet knobs all live here.
	Overrides *Overrides `json:"overrides,omitempty"`
	// WarmupCycles run before the measurement window opens; fault event
	// times are absolute cycles, not measurement-relative.
	WarmupCycles uint64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement-window length; the run simulates
	// WarmupCycles+MeasureCycles in total.
	MeasureCycles uint64 `json:"measure_cycles"`
	// Faults is the ordered fault plan armed before the run starts.
	Faults fault.Plan `json:"faults,omitempty"`
	// Expect, when set, states the outcome the run must produce; the
	// scenario smoke tooling fails runs that drift from it.
	Expect *Expect `json:"expect,omitempty"`
}

// Overrides deviates selected target-system parameters from the
// defaults. Every field mirrors the config.Params field of the same
// name; nil fields keep the default. The set is applied before
// config.Normalize and config.Validate, so an override cannot assemble
// an inconsistent configuration silently.
type Overrides struct {
	Protocol *string `json:"protocol,omitempty"`

	NumNodes    *int `json:"num_nodes,omitempty"`
	TorusWidth  *int `json:"torus_width,omitempty"`
	TorusHeight *int `json:"torus_height,omitempty"`

	BlockBytes         *int    `json:"block_bytes,omitempty"`
	L1Bytes            *int    `json:"l1_bytes,omitempty"`
	L1Ways             *int    `json:"l1_ways,omitempty"`
	L2Bytes            *int    `json:"l2_bytes,omitempty"`
	L2Ways             *int    `json:"l2_ways,omitempty"`
	MemoryBytesPerNode *uint64 `json:"memory_bytes_per_node,omitempty"`

	L1HitCycles             *uint64 `json:"l1_hit_cycles,omitempty"`
	L2HitCycles             *uint64 `json:"l2_hit_cycles,omitempty"`
	MemAccessCycles         *uint64 `json:"mem_access_cycles,omitempty"`
	DirAccessCycles         *uint64 `json:"dir_access_cycles,omitempty"`
	SwitchHopCycles         *uint64 `json:"switch_hop_cycles,omitempty"`
	LinkBytesPerCycleTenths *uint64 `json:"link_bytes_per_cycle_tenths,omitempty"`

	NonMemIPC *int `json:"non_mem_ipc,omitempty"`

	SafetyNetEnabled           *bool   `json:"safetynet_enabled,omitempty"`
	CheckpointIntervalCycles   *uint64 `json:"checkpoint_interval_cycles,omitempty"`
	MaxOutstandingCheckpoints  *int    `json:"max_outstanding_checkpoints,omitempty"`
	CLBBytes                   *int    `json:"clb_bytes,omitempty"`
	CLBEntryBytes              *int    `json:"clb_entry_bytes,omitempty"`
	RegisterCheckpointCycles   *uint64 `json:"register_checkpoint_cycles,omitempty"`
	LogStoreCycles             *uint64 `json:"log_store_cycles,omitempty"`
	DisableLogDedup            *bool   `json:"disable_log_dedup,omitempty"`
	DisablePipelinedValidation *bool   `json:"disable_pipelined_validation,omitempty"`
	CheckpointClockSkewCycles  *uint64 `json:"checkpoint_clock_skew_cycles,omitempty"`

	ValidationSignoffCycles  *uint64 `json:"validation_signoff_cycles,omitempty"`
	RequestTimeoutCycles     *uint64 `json:"request_timeout_cycles,omitempty"`
	ValidationWatchdogCycles *uint64 `json:"validation_watchdog_cycles,omitempty"`

	Seed                *uint64 `json:"seed,omitempty"`
	LatencyPerturbation *uint64 `json:"latency_perturbation,omitempty"`
}

// apply overlays the non-nil overrides on p. Fields pair by name with
// config.Params (TestOverridesMirrorParams enforces the mapping), so a
// new parameter only needs a field added here to become scriptable.
func (o *Overrides) apply(p config.Params) config.Params {
	if o == nil {
		return p
	}
	ov := reflect.ValueOf(*o)
	pv := reflect.ValueOf(&p).Elem()
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Field(i)
		if f.IsNil() {
			continue
		}
		pv.FieldByName(ov.Type().Field(i).Name).Set(f.Elem())
	}
	return p
}

// Merge overlays every non-nil field of over onto a copy of o,
// returning the merged set; over's fields win where both are set.
// Either receiver or argument may be nil: nil merges as "no overrides",
// and the result is nil only when both are. The campaign engine uses
// this to stack axis-point overrides onto a base scenario.
func (o *Overrides) Merge(over *Overrides) *Overrides {
	if over == nil {
		if o == nil {
			return nil
		}
		out := *o
		return &out
	}
	if o == nil {
		out := *over
		return &out
	}
	out := *o
	ov := reflect.ValueOf(*over)
	rv := reflect.ValueOf(&out).Elem()
	for i := 0; i < ov.NumField(); i++ {
		if f := ov.Field(i); !f.IsNil() {
			rv.Field(i).Set(f)
		}
	}
	return &out
}

// FieldsSet returns the names of the overridden (non-nil) fields, in
// declaration order; nil reports none. Campaign validation uses it to
// reject two axes scripting the same parameter.
func (o *Overrides) FieldsSet() []string {
	if o == nil {
		return nil
	}
	var set []string
	ov := reflect.ValueOf(*o)
	for i := 0; i < ov.NumField(); i++ {
		if !ov.Field(i).IsNil() {
			set = append(set, ov.Type().Field(i).Name)
		}
	}
	return set
}

// Expect states the outcome a scenario run must produce. The zero value
// demands a fault-free-looking run: no crash, any number of recoveries.
type Expect struct {
	// Crash requires the run to crash (true) or survive (false).
	Crash bool `json:"crash,omitempty"`
	// MinRecoveries is the least number of completed recoveries the run
	// must observe.
	MinRecoveries int `json:"min_recoveries,omitempty"`
}

// Check compares a run's outcome against the expectation.
func (e *Expect) Check(crashed bool, recoveries int) error {
	if e == nil {
		return nil
	}
	if crashed != e.Crash {
		if e.Crash {
			return fmt.Errorf("expected the run to crash, but it survived")
		}
		return fmt.Errorf("expected the run to survive, but it crashed")
	}
	if recoveries < e.MinRecoveries {
		return fmt.Errorf("expected at least %d recoveries, observed %d", e.MinRecoveries, recoveries)
	}
	return nil
}

// Params assembles the run's full configuration: Table 2 defaults,
// overrides applied, dependent parameters normalized, and the result
// validated.
func (s *Scenario) Params() (config.Params, error) {
	return s.ParamsFrom(config.Default())
}

// ParamsFrom assembles the run's configuration over an arbitrary base
// instead of the Table 2 defaults: overrides applied, dependent
// parameters normalized, result validated. The experiment harness uses
// it so campaign-defined grids honor the caller's base configuration.
func (s *Scenario) ParamsFrom(base config.Params) (config.Params, error) {
	p := s.Overrides.apply(base).Normalize()
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// Validate reports the first semantic error: a missing or unknown
// workload, an empty measurement window, or an invalid configuration.
// Fault-plan parameters are checked later, at arm time, because their
// validity depends on the backend the configuration selects.
func (s *Scenario) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("scenario: workload is required")
	}
	if _, err := workload.ByName(s.Workload); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if s.MeasureCycles == 0 {
		return fmt.Errorf("scenario: measure_cycles must be positive")
	}
	if _, err := s.Params(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// DecodeStrict decodes the one JSON object data holds into v, for the
// three declarative file formats (scenario, campaign, exploration). An
// unknown field fails, and so does anything after the object, so a file
// holds exactly one; what names the format in that error.
func DecodeStrict(data []byte, what string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("%s: trailing data after the %s object", what, what)
	}
	return nil
}

// LoadFile reads the file at path and parses it, naming the path in a
// parse error.
func LoadFile[T any](path string, parse func([]byte) (*T, error)) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// Parse decodes and validates one scenario. Decoding is strict: unknown
// fields fail, and an unknown fault kind fails with a wrapped
// *fault.UnknownKindError.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := DecodeStrict(data, "scenario", &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the scenario in the canonical indented form used by the
// checked-in files and the golden tests, the same JSON encoding every
// report uses. Parse(Encode(s)) reproduces s.
func (s *Scenario) Encode() ([]byte, error) { return report.JSON(s) }

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) { return LoadFile(path, Parse) }

// TotalCycles is the scenario's full horizon: warmup plus measurement.
func (s *Scenario) TotalCycles() uint64 { return s.WarmupCycles + s.MeasureCycles }

// ScaleTo proportionally shrinks the scenario so its total horizon fits
// budgetCycles: the warmup and measurement windows and every fault
// event's times and periods scale by the same factor, preserving the
// scenario's shape (a fault an eighth into the window stays an eighth
// in). Scenarios already within budget are untouched. The CI smoke job
// uses it (snsim -short) to exercise every checked-in scenario quickly.
func (s *Scenario) ScaleTo(budgetCycles uint64) {
	total := s.TotalCycles()
	if budgetCycles == 0 || total <= budgetCycles {
		return
	}
	f := float64(budgetCycles) / float64(total)
	s.WarmupCycles = scaleCycles(s.WarmupCycles, f)
	s.MeasureCycles = scaleCycles(s.MeasureCycles, f)
	for i, ev := range s.Faults {
		s.Faults[i] = scaleEvent(ev, f)
	}
}

// scaleCycles scales n by f, keeping nonzero values at least 1.
func scaleCycles(n uint64, f float64) uint64 {
	if n == 0 {
		return 0
	}
	if v := uint64(float64(n) * f); v > 0 {
		return v
	}
	return 1
}

func scaleT(t sim.Time, f float64) sim.Time {
	return sim.Time(scaleCycles(uint64(t), f))
}

// scaleEvent rescales one fault event's schedule.
func scaleEvent(ev fault.Event, f float64) fault.Event {
	switch e := ev.(type) {
	case fault.DropOnce:
		e.At = scaleT(e.At, f)
		return e
	case fault.DropEvery:
		e.Start = scaleT(e.Start, f)
		e.Period = scaleT(e.Period, f)
		return e
	case fault.CorruptOnce:
		e.At = scaleT(e.At, f)
		return e
	case fault.MisrouteOnce:
		e.At = scaleT(e.At, f)
		return e
	case fault.DuplicateOnce:
		e.At = scaleT(e.At, f)
		return e
	case fault.KillSwitch:
		e.At = scaleT(e.At, f)
		return e
	}
	return ev
}
