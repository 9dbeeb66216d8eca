package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"safetynet/internal/campaign/report"
)

// goldenReport is a fixed exploration report exercising every encoder
// path: each arm status, both round kinds, full-precision and
// exponent-form objectives, and an arm description CSV must quote.
func goldenReport() *Report {
	frontier := Arm{Index: 0, Labels: map[string]string{"interval": "10k", "clb": "512KB"},
		Desc: "interval=10k clb=512KB", Runs: 3, Objectives: []float64{0.987654321, 1234.5}, Frontier: true}
	return &Report{
		Exploration: "golden",
		Description: "encoder fixture (not a real exploration)",
		Strategy:    "halving",
		Objectives:  []ObjectiveInfo{{Name: "availability", Goal: "max"}, {Name: "recovery_latency", Goal: "min"}},
		Arms:        4, EvaluatedArms: 2, PrunedArms: 1, CrashedArms: 1,
		ExecutedRuns: 10, ExhaustiveRuns: 12,
		Frontier: []Arm{frontier},
		AllArms: []Arm{
			frontier,
			{Index: 1, Labels: map[string]string{"interval": "10k", "clb": "1MB"},
				Desc: "interval=10k clb=1MB", Runs: 3, Objectives: []float64{0.95, 2.5e-7}, Rank: 1},
			{Index: 2, Labels: map[string]string{"interval": "1M, slow", "clb": "512KB"},
				Desc: "interval=1M, slow clb=512KB", Pruned: true, Rank: -1},
			{Index: 3, Labels: map[string]string{"interval": "1M, slow", "clb": "1MB"},
				Desc: "interval=1M, slow clb=1MB", Crashed: true, Rank: -1},
		},
		Axes: []AxisBreakdown{
			{Axis: "interval", Groups: []AxisGroup{
				{Label: "10k", Arms: 2, Evaluated: 2, FrontierArms: 1, BestPrimary: 0.987654321},
				{Label: "1M, slow", Arms: 2},
			}},
		},
		Rounds: []Round{
			{Phase: "short", Arms: 4, SeedsEach: 1, ScaledTo: 400000, Runs: 4, Kept: 2, CrashedArms: 1},
			{Phase: "full", Arms: 2, SeedsEach: 3, Runs: 6},
		},
	}
}

// Regenerate goldens with: UPDATE_GOLDEN=1 go test ./internal/explore -run TestReportGolden
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestReportGolden pins every encoding of the fixture report to the
// bytes snexplore prints for it.
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
