package harness

import (
	"fmt"

	"safetynet/internal/config"
	"safetynet/internal/runner"
)

// table2Reduce builds the target-system parameter table in the shape of
// the paper's Table 2. It is the one experiment with no simulation grid.
func table2Reduce(p config.Params, _ runner.Options, _ []Point, _ []runner.RunResult) *Report {
	rows := [][2]string{
		{"L1 Cache (I and D)", fmt.Sprintf("%d KB, %d-way set associative", p.L1Bytes>>10, p.L1Ways)},
		{"L2 Cache", fmt.Sprintf("%d MB, %d-way set-associative", p.L2Bytes>>20, p.L2Ways)},
		{"Memory", fmt.Sprintf("%d GB, %d byte blocks", p.MemoryBytesPerNode*uint64(p.NumNodes)>>30, p.BlockBytes)},
		{"Miss From Memory", fmt.Sprintf("~%d ns (uncontended, 2-hop)", estimateTwoHopMiss(p))},
		{"Checkpoint Log Buffer", fmt.Sprintf("%d kbytes total, %d byte entries", p.CLBBytes>>10, p.CLBEntryBytes)},
		{"Interconnection Network", fmt.Sprintf("2D torus (%dx%d), link b/w = %.1f GB/sec", p.TorusWidth, p.TorusHeight, float64(p.LinkBytesPerCycleTenths)/10)},
		{"Checkpoint Interval", fmt.Sprintf("%d cycles = %d usec", p.CheckpointIntervalCycles, p.CheckpointIntervalCycles/1000)},
		{"Outstanding Checkpoints", fmt.Sprintf("%d (detection tolerance %d cycles)", p.MaxOutstandingCheckpoints, p.DetectionToleranceCycles())},
		{"Processors", fmt.Sprintf("%d, blocking, %d-wide non-memory issue", p.NumNodes, p.NonMemIPC)},
	}
	rep := &Report{LabelCols: []string{"Parameter", "Value"}}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, Row{Labels: []string{r[0], r[1]}})
	}
	return rep
}

// estimateTwoHopMiss computes the uncontended request-to-data latency of a
// memory read from an average-distance node (the paper's 180 ns figure).
func estimateTwoHopMiss(p config.Params) uint64 {
	// The average route on a WxH torus traverses about W/4 + H/4 + 1
	// half-switches; requests pay control serialization per link,
	// responses pay data serialization.
	avgTraversals := uint64(p.TorusWidth/4 + p.TorusHeight/4 + 1)
	req := (p.SwitchHopCycles + p.SerializationCycles(8)) * avgTraversals
	resp := (p.SwitchHopCycles + p.SerializationCycles(8+p.BlockBytes)) * avgTraversals
	return req + p.DirAccessCycles + p.MemAccessCycles + resp
}

func init() {
	if err := Register(Experiment{
		Name:        "table2",
		Title:       "Table 2: Target System Parameters",
		Description: "the simulated target-system parameters (no simulation runs)",
		Order:       0,
		Reduce:      table2Reduce,
	}); err != nil {
		panic(err)
	}
}
