package sched

import "testing"

// WithSnapshotOracle exposes withSnapshotOracle to the external tests,
// which run whole campaigns through internal/experiments.
var WithSnapshotOracle = func(t testing.TB) (snapshots, runs func() int64) {
	o := withSnapshotOracle(t)
	return o.snapshots.Load, o.runs.Load
}
