package report_test

import (
	"strings"
	"testing"

	"safetynet/internal/campaign"
	"safetynet/internal/campaign/report"
	"safetynet/internal/explore"
	"safetynet/internal/harness"
)

// TestReportEncodeDispatch: every report type encodes in every format,
// each encoding ends in a newline, and an unknown format fails with the
// one shared message.
func TestReportEncodeDispatch(t *testing.T) {
	reports := map[string]report.Report{
		"harness": &harness.Report{Experiment: "x", Title: "X", LabelCols: []string{"point"}, ValueCols: []string{"ipc"},
			Rows: []harness.Row{{Labels: []string{"a"}, Values: []harness.Value{harness.Scalar(1.5)}}}},
		"campaign": &campaign.Report{Campaign: "c", Runs: 1,
			Metrics: []campaign.MetricSummary{{Metric: "ipc"}}},
		"explore": &explore.Report{Exploration: "e", Strategy: "exhaustive",
			Objectives: []explore.ObjectiveInfo{{Name: "ipc", Goal: "max"}}},
	}
	for name, rep := range reports {
		for _, format := range []string{"", "text", "json", "csv"} {
			out, err := report.Encode(rep, format)
			if err != nil {
				t.Errorf("%s Encode(%q): %v", name, format, err)
				continue
			}
			if !strings.HasSuffix(string(out), "\n") {
				t.Errorf("%s Encode(%q) does not end in a newline: %q", name, format, out)
			}
		}
		_, err := report.Encode(rep, "xml")
		if err == nil || err.Error() != `unknown format "xml" (have text, json, csv)` {
			t.Errorf("%s Encode(xml) err = %v, want the shared unknown-format message", name, err)
		}
	}
}

func TestContentType(t *testing.T) {
	for format, want := range map[string]string{
		"":     "text/plain; charset=utf-8",
		"text": "text/plain; charset=utf-8",
		"json": "application/json",
		"csv":  "text/csv; charset=utf-8",
	} {
		if got, err := report.ContentType(format); err != nil || got != want {
			t.Errorf("ContentType(%q) = %q, %v; want %q", format, got, err, want)
		}
	}
	if err := report.Check("yaml"); err == nil || err.Error() != `unknown format "yaml" (have text, json, csv)` {
		t.Errorf("Check(yaml) = %v", err)
	}
}
