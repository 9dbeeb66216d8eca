package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const example = "../../examples/explorations/clb-vs-interval.json"

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExpandListsArms: -expand names each arm as the report does, with
// the seed replications stripped, including on a space whose only
// dimension is its seed range.
func TestExpandListsArms(t *testing.T) {
	seedOnly := filepath.Join(t.TempDir(), "seed-only.json")
	if err := os.WriteFile(seedOnly, []byte(`{
		"space": {"base": {"workload": "oltp", "measure_cycles": 1000},
			"seeds": {"start": 1, "count": 2}},
		"objectives": ["ipc"],
		"strategy": {"kind": "exhaustive"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		example: {
			"   0  interval=50k clb=4K\n",
			"   8  interval=200k clb=64K\n",
			"9 arms x 4 seeds = 36 exhaustive runs; strategy halving",
			"objectives: availability, ipc",
		},
		seedOnly: {
			"   0  arm 0\n",
			"1 arms x 2 seeds = 2 exhaustive runs; strategy exhaustive",
			"objectives: ipc",
		},
	}
	for path, wants := range cases {
		code, out, stderr := runCLI(t, "-expand", path)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", path, code, stderr)
		}
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s: expand output missing %q:\n%s", path, want, out)
			}
		}
		if strings.Contains(out, "seed=") {
			t.Errorf("%s: expand output leaks seed replications:\n%s", path, out)
		}
	}
}

func TestUsageAndLoadErrors(t *testing.T) {
	cases := [][]string{
		{},                                // missing file
		{"-format", "yaml", example},      // unknown format
		{"-strategy", "vibes", example},   // unknown strategy kind
		{filepath.Join(t.TempDir(), "a")}, // unreadable file
	}
	for _, args := range cases {
		if code, _, stderr := runCLI(t, args...); code != 1 || stderr == "" {
			t.Errorf("args %v: exit %d, stderr %q; want 1 with a message", args, code, stderr)
		}
	}
}

func TestStrategyOverrideDropsForeignParams(t *testing.T) {
	// The checked-in example declares halving parameters; overriding to
	// exhaustive must not carry them along (they would fail validation).
	code, out, stderr := runCLI(t, "-expand", "-strategy", "exhaustive", example)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "strategy exhaustive") {
		t.Errorf("override not applied:\n%s", out)
	}
}

func TestRejectsMalformedExploration(t *testing.T) {
	p := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(p, []byte(`{"name": "x", "cheese": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, p); code != 1 || !strings.Contains(stderr, "snexplore:") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}
