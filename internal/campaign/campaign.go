// Package campaign turns the declarative Scenario into the unit of
// large, statistically meaningful sweeps. A Campaign is JSON data with
// the same strict canonical parse/encode discipline as
// internal/scenario: a base scenario expanded over a matrix of override
// axes, fault-plan variants, and a seed range into hundreds of
// concrete runs. The runs execute on the shared worker pool
// (internal/runner) with streaming completion callbacks, and reduce
// through internal/stats into a Report — overall metric summaries with
// bootstrap confidence intervals plus per-axis breakdowns — whose
// encoding is byte-identical at any worker count.
//
// The experiment catalog's fixed grids are the special case: a
// campaign is the general substrate, and internal/harness expands
// campaign definitions into its design-point grids (the fig8, recovery
// and protocols experiments).
package campaign

import (
	"fmt"

	"safetynet/internal/campaign/report"
	"safetynet/internal/fault"
	"safetynet/internal/scenario"
)

// Reserved label keys the expansion assigns; axes cannot claim them.
const (
	// LabelVariant carries the fault-plan variant's name.
	LabelVariant = "variant"
	// LabelSeed carries the run's seed in decimal.
	LabelSeed = "seed"
)

// MaxRuns bounds a campaign's expansion; a matrix this large is a typo,
// not a sweep.
const MaxRuns = 1 << 20

// Campaign is one declarative sweep: a base scenario, the matrix axes
// deviating from it, the fault-plan variants, and the seed range. The
// expansion is the cartesian product axes × variants × seeds, in
// declaration order with seeds innermost.
type Campaign struct {
	// Name and Description identify the campaign in reports and logs.
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`
	// Base is the scenario every run starts from; axis points, variants,
	// and seeds deviate from it. It must be a valid scenario on its own.
	Base scenario.Scenario `json:"base"`
	// Axes are the matrix dimensions; each contributes one label to
	// every run. Two axes may not script the same parameter.
	Axes []Axis `json:"axes,omitempty"`
	// Variants are the fault-plan alternatives; each run takes exactly
	// one. When present, the base scenario must not carry its own fault
	// plan (a silently shadowed base plan would be a trap).
	Variants []Variant `json:"variants,omitempty"`
	// Seeds replicates every matrix point across a seed range; nil runs
	// each point once with the base scenario's seed.
	Seeds *SeedRange `json:"seeds,omitempty"`
}

// Axis is one matrix dimension: a named set of deviations from the base
// scenario. The axis name becomes the label key of its points.
type Axis struct {
	Name   string      `json:"name"`
	Points []AxisPoint `json:"points"`
}

// AxisPoint is one position along an axis: a label plus the deviation
// it applies — a workload switch, configuration overrides, or both.
type AxisPoint struct {
	Label string `json:"label"`
	// Workload, when set, replaces the base scenario's workload.
	Workload string `json:"workload,omitempty"`
	// Overrides are merged onto the base scenario's overrides (the
	// point's fields win).
	Overrides *scenario.Overrides `json:"overrides,omitempty"`
}

// Variant is one fault-plan alternative. The zero plan is the
// fault-free control arm.
type Variant struct {
	Name   string     `json:"name"`
	Faults fault.Plan `json:"faults,omitempty"`
	// Expect, when set, replaces the base scenario's expectation for
	// this variant's runs.
	Expect *scenario.Expect `json:"expect,omitempty"`
}

// Dimension is one breakdown dimension of a campaign matrix: an axis,
// or the variant dimension, with its labels in declaration order.
type Dimension struct {
	Name   string
	Labels []string
}

// Dimensions returns the matrix's breakdown dimensions in report order:
// every axis in declaration order, then the variant dimension when the
// campaign declares variants. Campaign and exploration reports both
// break their results down along these.
func (c *Campaign) Dimensions() []Dimension {
	dims := make([]Dimension, 0, len(c.Axes)+1)
	for _, a := range c.Axes {
		d := Dimension{Name: a.Name, Labels: make([]string, len(a.Points))}
		for i, pt := range a.Points {
			d.Labels[i] = pt.Label
		}
		dims = append(dims, d)
	}
	if len(c.Variants) > 0 {
		d := Dimension{Name: LabelVariant, Labels: make([]string, len(c.Variants))}
		for i, v := range c.Variants {
			d.Labels[i] = v.Name
		}
		dims = append(dims, d)
	}
	return dims
}

// SeedRange replicates every matrix point across Count seeds:
// Start, Start+Stride, ... A zero stride defaults to 1.
type SeedRange struct {
	Start  uint64 `json:"start"`
	Count  int    `json:"count"`
	Stride uint64 `json:"stride,omitempty"`
}

// stride returns the effective stride (zero defaults to 1).
func (r *SeedRange) stride() uint64 {
	if r.Stride == 0 {
		return 1
	}
	return r.Stride
}

// Runs returns the expansion size: axis points multiplied together,
// times variants (at least one), times seeds (at least one). The
// product saturates at MaxRuns+1 instead of overflowing, so a
// pathologically deep matrix (many small axes multiply past the int
// range) still reads as over-bound rather than wrapping negative and
// slipping past Validate.
func (c *Campaign) Runs() int {
	n := 1
	mul := func(m int) {
		if n > MaxRuns {
			return // already saturated
		}
		if m > 0 && n > MaxRuns/m {
			n = MaxRuns + 1
			return
		}
		n *= m
	}
	for _, a := range c.Axes {
		mul(len(a.Points))
	}
	if len(c.Variants) > 0 {
		mul(len(c.Variants))
	}
	if c.Seeds != nil && c.Seeds.Count > 0 {
		mul(c.Seeds.Count)
	}
	return n
}

// Validate reports the first structural error: an invalid base
// scenario, a malformed matrix (empty axes, duplicate names or labels,
// reserved label keys, two axes scripting one parameter), conflicting
// fault plans, or a degenerate seed range. Expanded runs are validated
// individually by Expand, which catches deviations that assemble an
// invalid configuration.
func (c *Campaign) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return fmt.Errorf("campaign base: %w", err)
	}
	axisNames := map[string]bool{}
	fieldOwner := map[string]string{} // overridden field -> axis that owns it
	workloadOwner := ""
	for i, a := range c.Axes {
		if a.Name == "" {
			return fmt.Errorf("campaign: axis %d needs a name", i)
		}
		if a.Name == LabelVariant || a.Name == LabelSeed {
			return fmt.Errorf("campaign: axis name %q is reserved", a.Name)
		}
		if axisNames[a.Name] {
			return fmt.Errorf("campaign: duplicate axis %q", a.Name)
		}
		axisNames[a.Name] = true
		if len(a.Points) == 0 {
			return fmt.Errorf("campaign: axis %q has no points", a.Name)
		}
		labels := map[string]bool{}
		for j, pt := range a.Points {
			if pt.Label == "" {
				return fmt.Errorf("campaign: axis %q point %d needs a label", a.Name, j)
			}
			if labels[pt.Label] {
				return fmt.Errorf("campaign: axis %q repeats point %q", a.Name, pt.Label)
			}
			labels[pt.Label] = true
			if pt.Workload == "" && pt.Overrides == nil {
				return fmt.Errorf("campaign: axis %q point %q deviates nothing (set workload or overrides)", a.Name, pt.Label)
			}
			if pt.Workload != "" {
				if workloadOwner != "" && workloadOwner != a.Name {
					return fmt.Errorf("campaign: axes %q and %q both script the workload", workloadOwner, a.Name)
				}
				workloadOwner = a.Name
			}
			for _, f := range pt.Overrides.FieldsSet() {
				if owner, taken := fieldOwner[f]; taken && owner != a.Name {
					return fmt.Errorf("campaign: axes %q and %q both script %s", owner, a.Name, f)
				}
				fieldOwner[f] = a.Name
				if f == "Seed" && c.Seeds != nil {
					return fmt.Errorf("campaign: axis %q scripts the seed, which conflicts with the seeds range", a.Name)
				}
			}
		}
	}
	variantNames := map[string]bool{}
	for i, v := range c.Variants {
		if v.Name == "" {
			return fmt.Errorf("campaign: variant %d needs a name", i)
		}
		if variantNames[v.Name] {
			return fmt.Errorf("campaign: duplicate variant %q", v.Name)
		}
		variantNames[v.Name] = true
	}
	if len(c.Variants) > 0 && len(c.Base.Faults) > 0 {
		return fmt.Errorf("campaign: base fault plan conflicts with variants (each run takes its variant's plan; move the base plan into a variant)")
	}
	if c.Seeds != nil {
		if c.Seeds.Count < 1 {
			return fmt.Errorf("campaign: seeds.count must be positive, got %d", c.Seeds.Count)
		}
	}
	if n := c.Runs(); n > MaxRuns {
		return fmt.Errorf("campaign: expands to %d runs, beyond the %d-run bound", n, MaxRuns)
	}
	return nil
}

// Parse decodes and validates one campaign. Decoding is strict: unknown
// fields fail, and an unknown fault kind fails with a wrapped
// *fault.UnknownKindError. Parse also expands the matrix once to reject
// campaigns whose deviations assemble invalid runs, so an accepted
// campaign is runnable end to end.
func Parse(data []byte) (*Campaign, error) {
	var c Campaign
	if err := scenario.DecodeStrict(data, "campaign", &c); err != nil {
		return nil, err
	}
	if _, err := c.Expand(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Encode renders the campaign in the canonical indented form used by
// the checked-in files and the golden tests. Parse(Encode(c))
// reproduces c.
func (c *Campaign) Encode() ([]byte, error) { return report.JSON(c) }

// Load reads and parses a campaign file.
func Load(path string) (*Campaign, error) { return scenario.LoadFile(path, Parse) }
