package vsm

import (
	"math/rand"
	"sort"
	"testing"

	"toppriv/internal/corpus"
)

// TestMergeTopK holds the merge to a sort of everything offered — ties
// on score included, which the coarse scores below make common — and
// pins what it allocates: the heap and the returned slice, however many
// hits the lists carry.
func TestMergeTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var lists [][]Result
	var all []Result
	for s, doc := 0, 0; s < 5; s++ {
		var list []Result
		for n := rng.Intn(60); n > 0; n-- {
			list = append(list, Result{Doc: corpus.DocID(doc), Score: float64(rng.Intn(12))})
			doc++
		}
		lists = append(lists, list)
		all = append(all, list...)
	}
	sort.Sort(byRank(all))
	for _, k := range []int{1, 10, len(all), len(all) + 5} {
		if err := sameHits(MergeTopK(lists, k), all[:min(k, len(all))]); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
	if got := MergeTopK(nil, 10); len(got) != 0 {
		t.Errorf("merging nothing returned %v", got)
	}
	if raceEnabled {
		return // race instrumentation inflates allocation counts
	}
	if avg := testing.AllocsPerRun(100, func() { MergeTopK(lists, 10) }); avg > 3 {
		t.Errorf("%.1f allocs to merge %d hits into 10, want the heap, the result and the sort's header", avg, len(all))
	}
}
