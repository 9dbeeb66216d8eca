package machine

import (
	"os"
	"testing"

	"safetynet/internal/config"
	"safetynet/internal/workload"
)

// TestTuneWorkloads reports per-workload steady-state rates (after warmup)
// for calibrating the synthetic profiles against the paper's §4.3 numbers.
// Run manually: TUNE=1 go test ./internal/machine -run TestTuneWorkloads -v
func TestTuneWorkloads(t *testing.T) {
	if os.Getenv("TUNE") == "" {
		t.Skip("set TUNE=1 to run the calibration report")
	}
	const warm, meas = 2_000_000, 2_000_000
	for _, name := range workload.PaperWorkloads() {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := config.Default()
		m := New(p, prof)
		m.Start()
		m.Run(warm)
		type snap struct {
			instrs, loads, stores, misses, upg, sLog, tLog, dLog uint64
		}
		take := func() snap {
			var s snap
			s.instrs = m.TotalInstrs()
			for _, n := range m.Nodes {
				cs := n.CC.Stats()
				s.loads += cs.Loads
				s.stores += cs.Stores
				s.misses += cs.Misses
				s.upg += cs.Upgrades
				s.sLog += n.CC.CLB().Appends() - n.CC.CLB().TransferAppends()
				s.tLog += n.CC.CLB().TransferAppends()
				s.dLog += n.Dir.CLB().Appends()
			}
			return s
		}
		missBy := map[string]uint64{}
		classify := func(addr uint64) string {
			if addr < uint64(prof.SharedBlocks)*64 {
				shb := uint64(prof.SharedHotBlocks) * 64
				swb := uint64(prof.SharedWarmBlocks) * 64
				switch {
				case addr < shb:
					return "sh-hot"
				case addr < shb+swb:
					return "sh-warm"
				}
				return "sh-cold"
			}
			base := addr &^ ((uint64(1) << 33) - 1)
			off := addr - base
			hb := uint64(prof.PrivateHotBlocks) * 64
			wb := uint64(prof.PrivateWarmBlocks) * 64
			switch {
			case off < hb:
				return "pr-hot"
			case off < hb+wb:
				return "pr-warm"
			}
			return "pr-cold"
		}
		for _, n := range m.Nodes {
			n.CC.OnMiss = func(addr uint64, isStore bool) { missBy[classify(addr)]++ }
		}
		a := take()
		m.Run(warm + meas)
		b := take()
		t.Logf("%s missBy: %v", name, missBy)
		d := snap{
			instrs: b.instrs - a.instrs, loads: b.loads - a.loads,
			stores: b.stores - a.stores, misses: b.misses - a.misses,
			upg: b.upg - a.upg, sLog: b.sLog - a.sLog,
			tLog: b.tLog - a.tLog, dLog: b.dLog - a.dLog,
		}
		k := float64(d.instrs) / 1000
		ipc := float64(d.instrs) / float64(meas) / 16
		t.Logf("%-10s ipc/proc=%.2f  refs/1k=%.0f stores/1k=%.1f miss/1k=%.1f upg/1k=%.1f  sLog/1k=%.2f (%.1f%% of stores) xferLog/1k=%.2f dirLog/1k=%.2f",
			name, ipc, float64(d.loads+d.stores)/k, float64(d.stores)/k,
			float64(d.misses)/k, float64(d.upg)/k,
			float64(d.sLog)/k, 100*float64(d.sLog)/float64(d.stores),
			float64(d.tLog)/k, float64(d.dLog)/k)
	}
}
