package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"safetynet"
	"safetynet/internal/campaign/report"
)

func TestUnknownFormatFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2", "-format", "yaml"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := report.Check("yaml").Error(); !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q lacks %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout not empty: %q", stdout.String())
	}
}

func TestCSVNeedsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all", "-format", "csv"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-format csv needs a single experiment") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

// bannerOrTiming matches the text format's banner and timing lines.
var bannerOrTiming = regexp.MustCompile(`(?m)^(=+|\[table2 completed in [^\]]*\])\n`)

// TestTable2PrintsCoreEncoding: in every format, snbench prints the
// bytes the shared encoder produces for the experiment's report.
func TestTable2PrintsCoreEncoding(t *testing.T) {
	rep, err := safetynet.RunExperiment("table2", safetynet.DefaultConfig(), safetynet.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"", "text", "json", "csv"} {
		want, err := report.Encode(rep, format)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", "table2", "-format", format}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, stderr.String())
		}
		got := stdout.String()
		if format == "" || format == "text" {
			// Without the banner and timing lines, the report is followed
			// by the two blank lines that end each text section.
			got = bannerOrTiming.ReplaceAllString(got, "")
			want = append(want, "\n\n"...)
		}
		if got != string(want) {
			t.Errorf("%s output differs from the core encoding:\n--- got ---\n%s\n--- want ---\n%s", format, got, want)
		}
	}
}
