package config

import "testing"

func TestDefaultMatchesTable2(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if p.NumNodes != 16 {
		t.Errorf("NumNodes = %d, want 16", p.NumNodes)
	}
	if p.L1Bytes != 128<<10 || p.L1Ways != 4 {
		t.Errorf("L1 = %d bytes %d-way, want 128KB 4-way", p.L1Bytes, p.L1Ways)
	}
	if p.L2Bytes != 4<<20 || p.L2Ways != 4 {
		t.Errorf("L2 = %d bytes %d-way, want 4MB 4-way", p.L2Bytes, p.L2Ways)
	}
	if p.BlockBytes != 64 {
		t.Errorf("BlockBytes = %d, want 64", p.BlockBytes)
	}
	if p.CheckpointIntervalCycles != 100_000 {
		t.Errorf("interval = %d, want 100000", p.CheckpointIntervalCycles)
	}
	if p.CLBBytes != 512<<10 || p.CLBEntryBytes != 72 {
		t.Errorf("CLB = %d bytes, entry %d, want 512KB/72B", p.CLBBytes, p.CLBEntryBytes)
	}
	if got := p.MemoryBytesPerNode * uint64(p.NumNodes); got != 2<<30 {
		t.Errorf("total memory = %d, want 2GB", got)
	}
}

func TestGeometryDerivations(t *testing.T) {
	p := Default()
	if got := p.L1Sets(); got != 512 {
		t.Errorf("L1Sets = %d, want 512", got)
	}
	if got := p.L2Sets(); got != 16384 {
		t.Errorf("L2Sets = %d, want 16384", got)
	}
	if got := p.CLBEntries(); got != (512<<10)/72 {
		t.Errorf("CLBEntries = %d, want %d", got, (512<<10)/72)
	}
	if got := p.DetectionToleranceCycles(); got != 400_000 {
		t.Errorf("detection tolerance = %d, want 400000 (paper: 0.4 ms)", got)
	}
}

func TestSerializationCycles(t *testing.T) {
	p := Default() // 6.4 bytes/cycle
	cases := []struct {
		bytes int
		want  uint64
	}{
		{0, 0},
		{8, 2},   // 8/6.4 = 1.25 -> 2
		{64, 10}, // 64/6.4 = 10
		{72, 12}, // 72/6.4 = 11.25 -> 12
	}
	for _, c := range cases {
		if got := p.SerializationCycles(c.bytes); got != c.want {
			t.Errorf("SerializationCycles(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestUnprotectedDisablesSafetyNet(t *testing.T) {
	p := Unprotected()
	if p.SafetyNetEnabled {
		t.Fatal("Unprotected must disable SafetyNet")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("unprotected config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero nodes", func(p *Params) { p.NumNodes = 0 }},
		{"beyond sharer bitmap", func(p *Params) { p.NumNodes = 64; p.TorusWidth = 8; p.TorusHeight = 8 }},
		{"beyond presence mask", func(p *Params) { p.Protocol = ProtocolSnoop; p.NumNodes = 65 }},
		{"unknown protocol", func(p *Params) { p.Protocol = "token" }},
		{"unprotected snoop", func(p *Params) { p.Protocol = ProtocolSnoop; p.SafetyNetEnabled = false }},
		{"torus mismatch", func(p *Params) { p.TorusWidth = 3 }},
		{"tiny torus", func(p *Params) { p.NumNodes = 2; p.TorusWidth = 2; p.TorusHeight = 1 }},
		{"block not pow2", func(p *Params) { p.BlockBytes = 48 }},
		{"zero ways", func(p *Params) { p.L1Ways = 0 }},
		{"l1 not divisible", func(p *Params) { p.L1Bytes = 100 }},
		{"l2 not divisible", func(p *Params) { p.L2Bytes = 100 }},
		{"zero l1", func(p *Params) { p.L1Bytes = 0 }},
		{"negative l1", func(p *Params) { p.L1Bytes = -p.L1Bytes }},
		{"zero l2", func(p *Params) { p.L2Bytes = 0 }},
		{"negative l2", func(p *Params) { p.L2Bytes = -p.L2Bytes }},
		{"no memory", func(p *Params) { p.MemoryBytesPerNode = 0 }},
		{"zero ipc", func(p *Params) { p.NonMemIPC = 0 }},
		{"zero bandwidth", func(p *Params) { p.LinkBytesPerCycleTenths = 0 }},
		{"zero interval", func(p *Params) { p.CheckpointIntervalCycles = 0 }},
		{"zero ckpts", func(p *Params) { p.MaxOutstandingCheckpoints = 0 }},
		{"clb too small", func(p *Params) { p.CLBBytes = 8 }},
		{"clb half too small", func(p *Params) { p.CLBBytes = 2*p.CLBEntryBytes - 1 }},
		{"skew too large", func(p *Params) { p.CheckpointClockSkewCycles = 10_000 }},
		{"zero timeout", func(p *Params) { p.RequestTimeoutCycles = 0 }},
		{"watchdog below interval", func(p *Params) { p.ValidationWatchdogCycles = 1 }},
	}
	for _, m := range mutations {
		p := Default()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", m.name)
		}
	}
}

func TestSkewBoundOnlyEnforcedWhenProtected(t *testing.T) {
	p := Unprotected()
	p.CheckpointIntervalCycles = 0 // irrelevant without SafetyNet
	if err := p.Validate(); err != nil {
		t.Fatalf("SafetyNet knobs must not be validated when disabled: %v", err)
	}
}

func TestNormalizeClampsSignoff(t *testing.T) {
	p := Default()
	p.CheckpointIntervalCycles = 25_000 // below the default 100k signoff
	if err := p.Validate(); err == nil {
		t.Fatal("precondition: the raw config should be inconsistent")
	}
	n := p.Normalize()
	if n.ValidationSignoffCycles != 25_000 {
		t.Fatalf("signoff = %d, want clamped to the 25k interval", n.ValidationSignoffCycles)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("normalized config invalid: %v", err)
	}
}

func TestNormalizeRaisesWatchdogFloor(t *testing.T) {
	p := Default()
	p.CheckpointIntervalCycles = 1_000_000 // above the default 600k watchdog
	n := p.Normalize()
	if want := uint64(6_000_000); n.ValidationWatchdogCycles != want {
		t.Fatalf("watchdog = %d, want %d", n.ValidationWatchdogCycles, want)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("normalized config invalid: %v", err)
	}
}

func TestNormalizeLeavesConsistentConfigsAlone(t *testing.T) {
	for _, p := range []Params{Default(), Unprotected()} {
		if n := p.Normalize(); n != p {
			t.Fatalf("Normalize changed a consistent config:\n got %+v\nwant %+v", n, p)
		}
	}
}

func TestNormalizeDoesNotRepairInvalidConfigs(t *testing.T) {
	p := Default()
	p.CheckpointIntervalCycles = 0
	n := p.Normalize()
	if n.CheckpointIntervalCycles != 0 {
		t.Fatal("Normalize must not invent a checkpoint interval")
	}
	if err := n.Validate(); err == nil {
		t.Fatal("zero interval must still fail validation")
	}
}
