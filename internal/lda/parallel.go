package lda

import (
	"math/rand"

	"toppriv/internal/corpus"
)

// TrainParallel fits an LDA model with approximate distributed Gibbs
// sampling (AD-LDA, Newman et al.): documents are partitioned across
// workers; within a sweep each worker samples its shard against a
// frozen snapshot of the global word-topic counts plus its local
// deltas, and the deltas merge at the sweep barrier.
//
// The paper notes (§V-A) that training time and memory are the only
// obstacle to scaling the topic model to the full corpus; this is the
// standard engineering answer. The result is statistically equivalent
// to sequential Gibbs but not bit-identical; pass workers = 1 for the
// exact sequential algorithm (it is then Train).
//
// The model depends only on the corpus, the spec and workers (at most
// one per document), never on the host: shard s draws from its own
// source seeded spec.Seed+s+1, and workers beyond the host's cores only
// take turns on them.
func TrainParallel(c *corpus.Corpus, spec TrainSpec, workers int) (*Model, error) {
	m, _, _, err := train(c, spec, workers)
	return m, err
}

// shard is one worker's contiguous range of documents and its working
// memory, all allocated once per training.
type shard struct {
	lo, hi int
	rng    *rand.Rand
	// nwt and nt are the shard's copies of the counts, laid out like the
	// barrier's. During a sweep they hold the barrier counts plus the
	// sweep's changes, after it only the changes, which merge adds to the
	// barrier counts.
	nwt, nt []int32
	// words lists the distinct words of the shard's documents in
	// ascending order: the only rows of nwt a sweep reads or changes.
	words []int32
	// den[t] is topic t's denominator nt[t]+Vβ and docw[t] the current
	// document's n_dt+α; cum holds the running sums of the current
	// token's topic weights.
	den, docw, cum []float64
}

// partition splits the documents into n = workers contiguous ranges of
// ⌈d/n⌉ (n at least one and at most d), the last ones shorter or empty.
// Under workers ≤ 1 the one shard goes on drawing from rng, the source
// that drew the initial topics; otherwise shard s draws from its own,
// seeded seed+s+1 — also when a one-document corpus leaves one shard.
func (g *gibbs) partition(workers, v int, rng *rand.Rand, seed int64) []*shard {
	k, d := g.k, len(g.assign)
	n := max(1, min(workers, d))
	per := (d + n - 1) / n
	seen := make([]bool, v)
	shards := make([]*shard, n)
	for s := range shards {
		lo := min(s*per, d)
		hi := min(lo+per, d)
		sh := &shard{
			lo:   lo,
			hi:   hi,
			rng:  rng,
			nwt:  make([]int32, v*k),
			nt:   make([]int32, k),
			den:  make([]float64, k),
			docw: make([]float64, k),
			cum:  make([]float64, k),
		}
		if workers > 1 {
			sh.rng = rand.New(rand.NewSource(seed + int64(s) + 1))
		}
		clear(seen)
		distinct := 0
		for _, bag := range g.bags[lo:hi] {
			for _, w := range bag {
				if !seen[w] {
					seen[w] = true
					distinct++
				}
			}
		}
		sh.words = make([]int32, 0, distinct)
		for w, ok := range seen {
			if ok {
				sh.words = append(sh.words, int32(w))
			}
		}
		shards[s] = sh
	}
	return shards
}

// merge adds the changes sh's sweep left in its copies to the barrier
// counts. They are integer adds, so the order of shards and words does
// not matter.
func (g *gibbs) merge(sh *shard) {
	k := g.k
	for _, w := range sh.words {
		row := int(w) * k
		nw := g.nwt[row:][:k]
		for t, delta := range sh.nwt[row:][:k] {
			nw[t] += delta
		}
	}
	for t, delta := range sh.nt {
		g.nt[t] += delta
	}
}
