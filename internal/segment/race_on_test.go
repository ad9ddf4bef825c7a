//go:build race

package segment

// raceEnabled reports whether the race detector instruments this
// build; allocation budgets are not meaningful under it.
const raceEnabled = true
