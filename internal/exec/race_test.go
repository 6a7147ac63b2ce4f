//go:build race

package exec

// raceEnabled reports a build with the race detector, under which
// TestSpillBudgetSweep runs its -short form: the wide form's 64,000
// budgeted queries take minutes under the detector.
const raceEnabled = true
