package vsm

// MergeTopK merges per-shard top-k result lists into the global top-k
// with a size-bounded min-heap — the engine's own, so a hit is never
// boxed on its way in. Ties break by ascending document ID — the same
// rule every ranked surface in the system uses — so the cluster router's
// merged ranking over shards equals a single-index ranking over the
// union, as long as every shard scored with the same global statistics.
func MergeTopK(lists [][]Result, k int) []Result {
	h := make(resultHeap, 0, k)
	for _, list := range lists {
		for _, r := range list {
			pushTopK(&h, k, r)
		}
	}
	return drainTopK(&h)
}
