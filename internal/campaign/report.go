package campaign

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"safetynet/internal/campaign/report"
	"safetynet/internal/runner"
	"safetynet/internal/stats"
)

// metricDefs is the fixed set of per-run quantities a campaign reduces.
// Order is report order. Crashed runs contribute to the crash count,
// not to the numeric samples.
var metricDefs = []struct {
	name string
	// add appends the run's observations of this metric (most metrics
	// contribute one value per run; recovery coordination latency
	// contributes one per recovery).
	add func(s *stats.Sample, r runner.RunResult)
}{
	{"ipc", func(s *stats.Sample, r runner.RunResult) { s.Add(r.IPC) }},
	{"recoveries", func(s *stats.Sample, r runner.RunResult) { s.Add(float64(r.Recoveries)) }},
	{"recovery_coord_cycles", func(s *stats.Sample, r runner.RunResult) {
		for _, d := range r.RecoveryCycles {
			s.Add(float64(d))
		}
	}},
	{"instrs_rolled_back", func(s *stats.Sample, r runner.RunResult) { s.Add(float64(r.InstrsRolledBack)) }},
	{"net_dropped", func(s *stats.Sample, r runner.RunResult) { s.Add(float64(r.NetDropped)) }},
}

// MetricSummary is one metric's full statistical description.
type MetricSummary struct {
	Metric string `json:"metric"`
	stats.Summary
}

// Group is one axis value's aggregate: every run whose label along the
// axis matches.
type Group struct {
	Label   string          `json:"label"`
	Runs    int             `json:"runs"`
	Crashes int             `json:"crashes"`
	Metrics []MetricSummary `json:"metrics"`
}

// AxisBreakdown aggregates the campaign's runs along one dimension —
// a declared axis or the variant set — with groups in declaration
// order.
type AxisBreakdown struct {
	Axis   string  `json:"axis"`
	Groups []Group `json:"groups"`
}

// Report is the statistical result of one campaign: overall metric
// summaries (mean, stddev, percentiles, bootstrap confidence
// intervals) plus per-axis breakdowns. It is reduced from results in
// expansion order, so for a given campaign and seed set its encodings
// are byte-identical regardless of how many workers executed the runs.
type Report struct {
	Campaign    string `json:"campaign"`
	Description string `json:"description,omitempty"`
	Runs        int    `json:"runs"`
	Crashes     int    `json:"crashes"`
	// ExpectFailures lists runs whose scenario expectation went unmet,
	// one "desc: error" line per failing run, in expansion order. CI
	// gates key off this being empty.
	ExpectFailures []string        `json:"expect_failures,omitempty"`
	Metrics        []MetricSummary `json:"metrics"`
	Axes           []AxisBreakdown `json:"axes,omitempty"`
}

// summarize reduces one slice of runs (identified by index) into
// metric summaries.
func summarize(res []runner.RunResult, idxs []int) (metrics []MetricSummary, crashes int) {
	samples := make([]stats.Sample, len(metricDefs))
	for _, i := range idxs {
		if res[i].Crashed {
			crashes++
			continue
		}
		for m := range metricDefs {
			metricDefs[m].add(&samples[m], res[i])
		}
	}
	metrics = make([]MetricSummary, len(metricDefs))
	for m := range metricDefs {
		metrics[m] = MetricSummary{Metric: metricDefs[m].name, Summary: samples[m].Summarize()}
	}
	return metrics, crashes
}

// Reduce folds the campaign's results — res[i] belongs to runs[i], in
// expansion order regardless of execution order — into the report.
func Reduce(c *Campaign, runs []Run, res []runner.RunResult) *Report {
	rep := &Report{Campaign: c.Name, Description: c.Description, Runs: len(runs)}

	all := make([]int, len(runs))
	for i := range runs {
		all[i] = i
	}
	rep.Metrics, rep.Crashes = summarize(res, all)

	for i := range runs {
		if err := runs[i].Scenario.Expect.Check(res[i].Crashed, res[i].Recoveries); err != nil {
			rep.ExpectFailures = append(rep.ExpectFailures,
				fmt.Sprintf("%s: %v", runs[i].Desc, err))
		}
	}

	// Breakdowns along every declared axis, plus the variant dimension.
	for _, d := range c.Dimensions() {
		bd := AxisBreakdown{Axis: d.Name}
		for _, label := range d.Labels {
			var idxs []int
			for i := range runs {
				if runs[i].Labels[d.Name] == label {
					idxs = append(idxs, i)
				}
			}
			g := Group{Label: label, Runs: len(idxs)}
			g.Metrics, g.Crashes = summarize(res, idxs)
			bd.Groups = append(bd.Groups, g)
		}
		rep.Axes = append(rep.Axes, bd)
	}
	return rep
}

// metric returns the named summary from a list ("" metric if absent).
func metric(ms []MetricSummary, name string) stats.Summary {
	for _, m := range ms {
		if m.Metric == name {
			return m.Summary
		}
	}
	return stats.Summary{}
}

// Render prints the report as aligned text tables: the overall metric
// summary, then one breakdown table per dimension.
func (r *Report) Render() string {
	var b strings.Builder
	title := r.Campaign
	if title == "" {
		title = "campaign"
	}
	fmt.Fprintf(&b, "Campaign %s: %d runs, %d crashes", title, r.Runs, r.Crashes)
	if n := len(r.ExpectFailures); n > 0 {
		fmt.Fprintf(&b, ", %d expectation failures", n)
	}
	b.WriteString("\n")
	if r.Description != "" {
		b.WriteString(r.Description + "\n")
	}
	b.WriteString("\n")

	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	var rows [][]string
	for _, m := range r.Metrics {
		rows = append(rows, []string{
			m.Metric, strconv.Itoa(m.N), f(m.Mean), f(m.Stddev), f(m.Median),
			f(m.P5), f(m.P95), f(m.CILo), f(m.CIHi),
		})
	}
	b.WriteString(stats.Table(
		[]string{"metric", "n", "mean", "stddev", "median", "p5", "p95", "ci95lo", "ci95hi"}, rows))

	for _, bd := range r.Axes {
		fmt.Fprintf(&b, "\nby %s:\n", bd.Axis)
		var rows [][]string
		for _, g := range bd.Groups {
			ipc := metric(g.Metrics, "ipc")
			rec := metric(g.Metrics, "recoveries")
			rows = append(rows, []string{
				g.Label, strconv.Itoa(g.Runs), strconv.Itoa(g.Crashes),
				f(ipc.Mean), f(ipc.Stddev), f(ipc.P95), f(rec.Mean),
			})
		}
		b.WriteString(stats.Table(
			[]string{bd.Axis, "runs", "crashes", "ipc", "ipc-sd", "ipc-p95", "recoveries"}, rows))
	}

	if len(r.ExpectFailures) > 0 {
		b.WriteString("\nexpectation failures:\n")
		for _, f := range r.ExpectFailures {
			b.WriteString("  " + f + "\n")
		}
	}
	return b.String()
}

// JSON marshals the report with full numeric precision and no trailing
// newline: the bytes perfbench hashes.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table returns the report as one flat table: a row per (scope, metric),
// where scope is "overall" or an axis group.
func (r *Report) Table() [][]string {
	table := [][]string{{"axis", "label", "runs", "crashes", "metric",
		"n", "mean", "stddev", "min", "max", "median", "p5", "p95", "ci95_lo", "ci95_hi"}}
	g := report.Float
	scope := func(axis, label string, runs, crashes int, ms []MetricSummary) {
		for _, m := range ms {
			table = append(table, []string{axis, label, strconv.Itoa(runs), strconv.Itoa(crashes), m.Metric,
				strconv.Itoa(m.N), g(m.Mean), g(m.Stddev), g(m.Min), g(m.Max),
				g(m.Median), g(m.P5), g(m.P95), g(m.CILo), g(m.CIHi)})
		}
	}
	scope("overall", "", r.Runs, r.Crashes, r.Metrics)
	for _, bd := range r.Axes {
		for _, grp := range bd.Groups {
			scope(bd.Axis, grp.Label, grp.Runs, grp.Crashes, grp.Metrics)
		}
	}
	return table
}
