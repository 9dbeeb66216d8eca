package main

// pinnedStats are the single-run workloads' simulated statistics at the
// default seed and full horizon. A change that only speeds up the
// simulator must reproduce them exactly; a change to simulated behaviour
// updates them in a change of its own.
var pinnedStats = map[string]simStats{
	"oltp-steady": {Cycles: 4_000_000, Instrs: 11_320_349, RecoveryPoint: 39,
		StoresLogged: 77_989, TransfersLogged: 14_850, MsgsSent: 814_278},
	"stress-recovery": {Cycles: 6_000_000, Instrs: 495_727, RecoveryPoint: 542,
		Recoveries: 23, RolledBack: 42_731, StoresLogged: 13_217, TransfersLogged: 31_707,
		MsgsSent: 1_248_057, MsgsDropped: 23},
}

// pinnedMatrixHash is the SHA-256 of campaign-matrix's JSON report at the
// default seed.
const pinnedMatrixHash = "c7604f81f35b1b3037575f5546830c9fdf4469eefd4831c89f03b15d47d03668"
