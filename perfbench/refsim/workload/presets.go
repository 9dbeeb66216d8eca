package workload

import (
	"fmt"
	"sort"
)

// The presets approximate the five workloads of the paper's Table 3. The
// absolute throughput of a synthetic generator cannot match a commercial
// binary, but the properties Figures 5-8 depend on are tuned to match the
// paper's reported behaviour:
//
//   - strong temporal locality, so at a 100,000-cycle checkpoint interval
//     only ~2-3% of stores touch a block for the first time in the
//     interval (~100-250 CLB entries per interval, §4.3), with the warm
//     tier producing the logging falloff of Figure 6 as intervals grow;
//   - miss rates of a few percent (blocking-processor IPC well below the
//     4-wide peak, as in commercial workloads);
//   - commercial profiles (oltp, jbb, apache, slashcode) share more data
//     and migrate ownership more than the scientific barnes-hut;
//   - apache is read-mostly; oltp has the largest working set.

// OLTP approximates the TPC-C/DB2 profile: large working set, heavy
// migratory sharing (row locks), moderate store fraction.
func OLTP() Profile {
	return Profile{
		Name:            "oltp",
		MemRefsPer1000:  300,
		StoreFrac:       0.30,
		SharedFrac:      0.35,
		SharedStoreFrac: 0.005,
		HotFrac:         0.95, WarmFrac: 0.04,
		PrivateBlocks: 40_000, PrivateHotBlocks: 96, PrivateWarmBlocks: 512,
		SharedBlocks: 48_000, SharedHotBlocks: 512, SharedWarmBlocks: 2_048,
		MigratoryFrac: 0.035, MigratoryLen: 3, MigratoryBlocks: 3_000,
		HotRotatePeriod: 30_000,
	}
}

// JBB approximates SPECjbb2000: mid-size Java heap, allocation-heavy
// stores, moderate sharing.
func JBB() Profile {
	return Profile{
		Name:            "jbb",
		MemRefsPer1000:  320,
		StoreFrac:       0.35,
		SharedFrac:      0.22,
		SharedStoreFrac: 0.005,
		HotFrac:         0.95, WarmFrac: 0.04,
		PrivateBlocks: 24_000, PrivateHotBlocks: 128, PrivateWarmBlocks: 640,
		SharedBlocks: 20_000, SharedHotBlocks: 384, SharedWarmBlocks: 1_536,
		MigratoryFrac: 0.025, MigratoryLen: 3, MigratoryBlocks: 2_000,
		HotRotatePeriod: 25_000,
	}
}

// Apache approximates the static web server (Apache+SURGE): read-mostly
// file cache with widely shared read-only data.
func Apache() Profile {
	return Profile{
		Name:            "apache",
		MemRefsPer1000:  280,
		StoreFrac:       0.14,
		SharedFrac:      0.45,
		SharedStoreFrac: 0.003,
		HotFrac:         0.955, WarmFrac: 0.035,
		PrivateBlocks: 16_000, PrivateHotBlocks: 80, PrivateWarmBlocks: 448,
		SharedBlocks: 32_000, SharedHotBlocks: 768, SharedWarmBlocks: 2_560,
		MigratoryFrac: 0.012, MigratoryLen: 3, MigratoryBlocks: 1_500,
		HotRotatePeriod: 35_000,
	}
}

// Slashcode approximates the dynamic web server (Slashcode/MySQL):
// mixed read/write with database-style migratory sharing.
func Slashcode() Profile {
	return Profile{
		Name:            "slashcode",
		MemRefsPer1000:  300,
		StoreFrac:       0.25,
		SharedFrac:      0.30,
		SharedStoreFrac: 0.005,
		HotFrac:         0.95, WarmFrac: 0.04,
		PrivateBlocks: 28_000, PrivateHotBlocks: 112, PrivateWarmBlocks: 576,
		SharedBlocks: 28_000, SharedHotBlocks: 448, SharedWarmBlocks: 1_792,
		MigratoryFrac: 0.03, MigratoryLen: 3, MigratoryBlocks: 2_500,
		HotRotatePeriod: 28_000,
	}
}

// Barnes approximates SPLASH-2 barnes-hut: scientific code with a small
// hot working set, little sharing outside force-calculation phases, and
// the highest locality of the five.
func Barnes() Profile {
	return Profile{
		Name:            "barnes",
		MemRefsPer1000:  260,
		StoreFrac:       0.25,
		SharedFrac:      0.12,
		SharedStoreFrac: 0.005,
		HotFrac:         0.965, WarmFrac: 0.025,
		PrivateBlocks: 12_000, PrivateHotBlocks: 160, PrivateWarmBlocks: 512,
		SharedBlocks: 8_000, SharedHotBlocks: 256, SharedWarmBlocks: 768,
		MigratoryFrac: 0.015, MigratoryLen: 3, MigratoryBlocks: 1_000,
		HotRotatePeriod: 50_000,
	}
}

// Stress is the random protocol tester's profile (Wood et al. [47] style):
// a tiny shared region maximizing false sharing, races and ownership
// migration. It is not a performance workload.
func Stress() Profile {
	return Profile{
		Name:            "stress",
		MemRefsPer1000:  500,
		StoreFrac:       0.5,
		SharedFrac:      0.9,
		SharedStoreFrac: 0.5,
		HotFrac:         0.7, WarmFrac: 0.2,
		PrivateBlocks: 64, PrivateHotBlocks: 16, PrivateWarmBlocks: 16,
		SharedBlocks: 48, SharedHotBlocks: 12, SharedWarmBlocks: 12,
		MigratoryFrac: 0.3, MigratoryLen: 3, MigratoryBlocks: 32,
		HotRotatePeriod: 500,
	}
}

var presets = map[string]func() Profile{
	"oltp":      OLTP,
	"jbb":       JBB,
	"apache":    Apache,
	"slashcode": Slashcode,
	"barnes":    Barnes,
	"stress":    Stress,
}

// Names returns the preset names in stable order.
func Names() []string {
	out := make([]string, 0, len(presets))
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperWorkloads returns the five workloads of the paper's evaluation in
// the order of Figure 5.
func PaperWorkloads() []string {
	return []string{"jbb", "apache", "slashcode", "oltp", "barnes"}
}

// ByName returns the preset profile with the given name.
func ByName(name string) (Profile, error) {
	f, ok := presets[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown preset %q (have %v)", name, Names())
	}
	return f(), nil
}
