package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"safetynet/internal/campaign/report"
	"safetynet/internal/stats"
)

// goldenReport is a fixed campaign report exercising every encoder
// path: expectation failures, a crashed group, full-precision and
// exponent-form numbers, and a label CSV must quote.
func goldenReport() *Report {
	sum := func(n int, mean, sd float64) stats.Summary {
		return stats.Summary{N: n, Mean: mean, Stddev: sd, Min: mean - 2*sd, Max: mean + 2*sd,
			Median: mean + sd/3, P5: mean - 1.5*sd, P95: mean + 1.5*sd, CILo: mean - sd/2, CIHi: mean + sd/2}
	}
	metrics := func(ipc, rec float64, n int) []MetricSummary {
		return []MetricSummary{
			{Metric: "ipc", Summary: sum(n, ipc, 0.0123456789)},
			{Metric: "recoveries", Summary: sum(n, rec, 0.5)},
			{Metric: "recovery_coord_cycles", Summary: sum(2*n, 12345.678, 987.25)},
			{Metric: "instrs_rolled_back", Summary: sum(n, 4.2e7, 1.5e-7)},
			{Metric: "net_dropped", Summary: sum(n, 0, 0)},
		}
	}
	return &Report{
		Campaign:       "golden",
		Description:    "encoder fixture (not a real campaign)",
		Runs:           6,
		Crashes:        1,
		ExpectFailures: []string{"interval=1M, slow variant=drop seed=3: got 0 recoveries, want at least 1"},
		Metrics:        metrics(5.4321, 1.25, 5),
		Axes: []AxisBreakdown{
			{Axis: "interval", Groups: []Group{
				{Label: "10k", Runs: 3, Metrics: metrics(5.5, 1.5, 3)},
				{Label: "1M, slow", Runs: 3, Crashes: 1, Metrics: metrics(5.25, 1, 2)},
			}},
			{Axis: "variant", Groups: []Group{
				{Label: "drop", Runs: 6, Crashes: 1, Metrics: metrics(5.4321, 1.25, 5)},
			}},
		},
	}
}

// Regenerate goldens with: UPDATE_GOLDEN=1 go test ./internal/campaign -run TestReportGolden
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestReportGolden pins every encoding of the fixture report to the
// bytes sncampaign prints for it.
func TestReportGolden(t *testing.T) {
	for format, file := range map[string]string{"text": "report.txt", "json": "report.json", "csv": "report.csv"} {
		out, err := report.Encode(goldenReport(), format)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", file)
		if updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file %s (set UPDATE_GOLDEN=1 to create): %v", path, err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", file, out, want)
		}
	}
}
