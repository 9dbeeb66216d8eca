package snoop

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/fault"
	"safetynet/internal/workload"
)

// busReads lists the config.Params fields the snooping system reads:
// Protocol selects the bus, Validate requires SafetyNetEnabled, and New
// and its nodes build from the other nine.
var busReads = []string{
	"Protocol", "SafetyNetEnabled",
	"NumNodes", "BlockBytes", "L2Bytes", "L2Ways", "CLBBytes",
	"CheckpointIntervalCycles", "RequestTimeoutCycles", "ValidationWatchdogCycles", "Seed",
}

// busIgnores maps every config.Params field the snooping system leaves
// unread to a valid value other than config.SmallSnoop's. It is the
// documented parity gap with the directory machine (README, "Two
// protocols, one harness"), and it may only shrink.
var busIgnores = map[string]any{
	"TorusWidth":                 8,
	"TorusHeight":                2,
	"L1Bytes":                    64 << 10,
	"L1Ways":                     8,
	"MemoryBytesPerNode":         uint64(1 << 20),
	"L1HitCycles":                uint64(3),
	"L2HitCycles":                uint64(20),
	"MemAccessCycles":            uint64(100),
	"DirAccessCycles":            uint64(10),
	"SwitchHopCycles":            uint64(20),
	"LinkBytesPerCycleTenths":    uint64(32),
	"NonMemIPC":                  2,
	"MaxOutstandingCheckpoints":  2,
	"CLBEntryBytes":              80,
	"RegisterCheckpointCycles":   uint64(50),
	"LogStoreCycles":             uint64(16),
	"DisableLogDedup":            true,
	"DisablePipelinedValidation": true,
	"CheckpointClockSkewCycles":  uint64(5),
	"ValidationSignoffCycles":    uint64(3072),
	"LatencyPerturbation":        uint64(4),
}

// busRun runs the stress workload on p for 300k cycles under periodic
// drops, so the run logs, validates and recovers.
func busRun(t *testing.T, p config.Params) *System {
	t.Helper()
	s := New(p, workload.Stress())
	arm(t, s, fault.DropEvery{Start: 50_000, Period: 60_000})
	s.Start()
	s.Run(300_000)
	return s
}

// busDigest hashes what a run produced: its counters, recovery point,
// validation count and architectural values in address order. The run
// is not quiesced; the digest compares runs, not values against memory.
func busDigest(s *System) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v rpcn=%d validations=%d\n", s.Counters(), s.RPCN(), s.Validations)
	vals := s.ArchValues()
	addrs := make([]uint64, 0, len(vals))
	for a := range vals {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(h, "%x=%x\n", a, vals[a])
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestBusIgnoreList pins which config.Params fields the snooping bus
// ignores. Every field must be classified, so a new parameter fails
// here until it is, and each field on busIgnores, set to another valid
// value, must leave the run unchanged.
func TestBusIgnoreList(t *testing.T) {
	fields := reflect.VisibleFields(reflect.TypeOf(config.Params{}))
	for _, f := range fields {
		_, ignored := busIgnores[f.Name]
		if ignored == slices.Contains(busReads, f.Name) {
			t.Errorf("config.Params.%s must be on exactly one of busReads and busIgnores", f.Name)
		}
	}
	if n := len(busReads) + len(busIgnores); n != len(fields) {
		t.Errorf("busReads and busIgnores name %d fields, config.Params has %d", n, len(fields))
	}

	base := busRun(t, testParams(3))
	if base.Recoveries == 0 || base.Validations == 0 {
		t.Fatalf("baseline run made %d recoveries and %d validations; it must do both", base.Recoveries, base.Validations)
	}
	want := busDigest(base)
	for name, v := range busIgnores {
		p := testParams(3)
		field := reflect.ValueOf(&p).Elem().FieldByName(name)
		if !field.IsValid() || field.Type() != reflect.TypeOf(v) {
			t.Errorf("%s: no config.Params field of type %T", name, v)
			continue
		}
		if field.Interface() == v {
			t.Errorf("%s: %v is SmallSnoop's own value, so it perturbs nothing", name, v)
			continue
		}
		field.Set(reflect.ValueOf(v))
		if err := p.Validate(); err != nil {
			t.Errorf("%s = %v: %v", name, v, err)
			continue
		}
		if busDigest(busRun(t, p)) != want {
			t.Errorf("%s = %v changes the bus run: the bus reads it, so move it to busReads", name, v)
		}
	}
}
