package explore

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoadExploration drives the exploration parser (the core of
// safetynet.LoadExploration) with the checked-in example explorations
// as the seed corpus. The property under test is the round-trip
// guarantee: anything Parse accepts must Encode canonically, re-Parse,
// and reach a fixed point — and Parse must never panic on arbitrary
// input.
func FuzzLoadExploration(f *testing.F) {
	for _, p := range exampleExplorationFiles(f) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{
		"space": {"base": {"workload": "oltp", "measure_cycles": 1000}},
		"objectives": ["ipc"],
		"strategy": {"kind": "exhaustive"}}`))
	f.Add([]byte(`{
		"space": {"base": {"workload": "jbb", "measure_cycles": 1000},
			"axes": [{"name": "interval", "points": [{"label": "10k", "overrides": {"checkpoint_interval_cycles": 10000}}]}],
			"seeds": {"start": 1, "count": 3}},
		"objectives": ["availability", "log_footprint"],
		"strategy": {"kind": "halving", "eta": 2, "finalists": 1, "seeds_per_round": 1}}`))
	f.Add([]byte(`{
		"space": {"base": {"workload": "barnes", "measure_cycles": 1000}},
		"objectives": ["recovery_latency"],
		"strategy": {"kind": "halving", "scale_to": 500}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Parse(data)
		if err != nil {
			return // invalid input is fine; panicking is not
		}
		enc, err := e.Encode()
		if err != nil {
			t.Fatalf("accepted exploration failed to encode: %v", err)
		}
		e2, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v\n%s", err, enc)
		}
		enc2, err := e2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("not a fixed point:\n1st: %s\n2nd: %s", enc, enc2)
		}
	})
}
