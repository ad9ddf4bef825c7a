//go:build !race

package core

// raceEnabled reports whether the race detector instruments this
// build; allocation budgets are not meaningful under it.
const raceEnabled = false
