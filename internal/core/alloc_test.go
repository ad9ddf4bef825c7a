package core

import (
	"math/rand"
	"testing"
)

// TestObfuscateAllocations pins what one cycle allocates on a fixed
// query and seed. Ghost words are deduplicated by a scan of the words
// drawn, and the candidate order, the tentative belief and the ghost
// being drawn reuse buffers of the call, so what is left is the cycle
// itself (its queries, diagnostics and shuffle) and the posteriors.
func TestObfuscateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts past the budget")
	}
	f := getFixture(t)
	obf, err := NewObfuscator(f.eng, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	query := f.topicQuery(2, 5)
	rng := rand.New(rand.NewSource(1))
	var cyc *Cycle
	obfuscate := func() {
		rng.Seed(1)
		if cyc, err = obf.Obfuscate(query, rng); err != nil {
			t.Fatal(err)
		}
	}
	obfuscate()
	// 76 before the buffers were shared and the sets dropped.
	const budget = 42
	if allocs := testing.AllocsPerRun(20, obfuscate); allocs > budget {
		t.Errorf("%.0f allocs per cycle of %d, budget %d", allocs, cyc.Len(), budget)
	}
}
