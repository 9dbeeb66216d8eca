package safetynet

import (
	"safetynet/internal/campaign"
	"safetynet/internal/scenario"
)

// Campaign is a declarative, JSON-round-trippable sweep: a base
// Scenario expanded over a matrix of override axes, fault-plan
// variants, and a seed range into hundreds of runs, executed on a
// worker pool and reduced into a statistical report
// (mean/median/percentiles, stddev, bootstrap confidence intervals,
// per-axis breakdowns):
//
//	c, err := safetynet.LoadCampaign("examples/campaigns/availability-matrix.json")
//	rep, err := c.Run(safetynet.CampaignOptions{Workers: 8})
//	fmt.Println(rep.Render())
//
// The encoding round-trips losslessly with the same strict canonical
// discipline as scenarios: ParseCampaign rejects unknown fields and
// unknown fault kinds, Encode is canonical, and decode→encode→decode
// is a fixed point. Reports are reduced from results in expansion
// order, so for a given campaign the report bytes are identical at any
// worker count.
type Campaign campaign.Campaign

// CampaignAxis is one matrix dimension: a named set of labeled
// deviations (workload switches and/or configuration overrides) from
// the base scenario.
type CampaignAxis = campaign.Axis

// CampaignAxisPoint is one position along an axis.
type CampaignAxisPoint = campaign.AxisPoint

// CampaignVariant is one fault-plan alternative; the zero plan is the
// fault-free control arm.
type CampaignVariant = campaign.Variant

// CampaignSeedRange replicates every matrix point across a seed range.
type CampaignSeedRange = campaign.SeedRange

// CampaignRun is one expanded point of the matrix: the assembled
// scenario plus the labels naming its position along every dimension.
type CampaignRun = campaign.Run

// CampaignOptions sizes one campaign execution: worker count (zero
// means one per CPU, the same sanitization the experiment harness
// uses), optional short-horizon scaling, a streaming completion
// callback, and a per-run RunObserver factory.
type CampaignOptions = campaign.Options

// CampaignReport is the statistical result of one campaign; Render
// prints the text tables, Table returns the flat CSV table, and JSON
// marshals it losslessly.
type CampaignReport = campaign.Report

// NewCampaign starts a campaign from a base scenario; set Axes,
// Variants, and Seeds on the returned value. (The base scenario's
// concrete type lives in an internal package, so external code builds
// campaigns either from JSON or through this constructor.)
func NewCampaign(base *Scenario) *Campaign {
	return &Campaign{Base: scenario.Scenario(*base)}
}

// LoadCampaign reads, parses, validates, and expansion-checks a
// campaign file.
func LoadCampaign(path string) (*Campaign, error) {
	c, err := campaign.Load(path)
	if err != nil {
		return nil, err
	}
	return (*Campaign)(c), nil
}

// ParseCampaign decodes and validates one campaign from JSON.
func ParseCampaign(data []byte) (*Campaign, error) {
	c, err := campaign.Parse(data)
	if err != nil {
		return nil, err
	}
	return (*Campaign)(c), nil
}

func (c *Campaign) inner() *campaign.Campaign { return (*campaign.Campaign)(c) }

// Validate reports the first structural error: an invalid base
// scenario, a malformed matrix, conflicting fault plans, or a
// degenerate seed range.
func (c *Campaign) Validate() error { return c.inner().Validate() }

// Runs returns the expansion size without expanding.
func (c *Campaign) Runs() int { return c.inner().Runs() }

// Expand assembles and validates every run of the matrix in the
// deterministic expansion order.
func (c *Campaign) Expand() ([]CampaignRun, error) { return c.inner().Expand() }

// Encode renders the campaign in the canonical indented JSON form;
// ParseCampaign(Encode()) reproduces the campaign.
func (c *Campaign) Encode() ([]byte, error) { return c.inner().Encode() }

// Run expands the campaign and executes every run on the worker pool,
// returning the reduced statistical report.
func (c *Campaign) Run(o CampaignOptions) (*CampaignReport, error) {
	return c.inner().Execute(o)
}
