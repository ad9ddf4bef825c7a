package vsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
)

const goldenHitsPath = "testdata/golden_hits.txt"

// goldenHits runs a fixed stream of 40 eight-member cycles through
// SearchBatch — alternating scorers, k ∈ {1, 5, 20}, two cycles in four
// behind a tombstone filter, every third on injected statistics, every
// fifth with no terms in common — and renders one line per member: the
// work counters, then every hit as doc:score-bits.
func goldenHits(t *testing.T) []string {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{
		Seed: 77, NumDocs: 1500, NumTopics: 8, DocLenMin: 20, DocLenMax: 70,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	engines := map[Scoring]*Engine{}
	for _, scoring := range []Scoring{Cosine, BM25} {
		if engines[scoring], err = NewEngine(idx, an, scoring); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(78))
	dead := make([]bool, c.NumDocs())
	for d := range dead {
		dead[d] = rng.Float64() < 0.1
	}
	keep := func(d corpus.DocID) bool { return !dead[d] }
	ks := []int{1, 5, 20}

	var lines []string
	for cycle := 0; cycle < 40; cycle++ {
		scoring := Scoring(cycle % 2)
		reqs := make([]Request, 8)
		queries := cycleQueries(gt, an, rng, len(reqs))
		if cycle%5 == 4 {
			// One topic per member: no terms in common.
			for i := range queries {
				words := gt.TopicWords[i%len(gt.TopicWords)]
				queries[i] = analyzeTerms(an, []string{words[rng.Intn(8)], words[8+rng.Intn(8)], words[16+rng.Intn(8)]})
			}
		}
		for i, q := range queries {
			reqs[i] = Request{Terms: q, K: ks[cycle%len(ks)]}
			if cycle%4 >= 2 {
				reqs[i].Keep = keep
			}
			if cycle%3 == 2 {
				reqs[i].Global = globalFor(idx, q, 3, 131)
			}
		}
		resps, err := engines[scoring].SearchBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, resp := range resps {
			var b strings.Builder
			st := resp.Stats
			fmt.Fprintf(&b, "cycle %02d member %d %v k=%d scored=%d filtered=%d postings=%d blocks=%d hits",
				cycle, i, scoring, reqs[i].K, st.DocsScored, st.DocsFiltered, st.Postings, st.BlocksDecoded)
			for _, h := range resp.Hits {
				fmt.Fprintf(&b, " %d:%016x", h.Doc, math.Float64bits(h.Score))
			}
			lines = append(lines, b.String())
		}
	}
	return lines
}

// TestGoldenHits holds SearchBatch to the hits and work counters
// recorded in testdata/golden_hits.txt. The hits are those of the commit
// before the flat-scan kernel was rewritten (PR 18's parent), and so are
// the counters, except on the 32 members of cycles 09, 19, 29 and 39,
// which that commit ran under a pruning strategy since deleted: theirs
// are the flat scan's. The reference-scorer test says the kernel is
// right; this one says it still does what the old loops did.
// VSM_WRITE_GOLDEN_HITS=1 rewrites the file — only for a change that
// means to move a score or a counter.
func TestGoldenHits(t *testing.T) {
	got := goldenHits(t)
	if os.Getenv("VSM_WRITE_GOLDEN_HITS") != "" {
		if err := os.WriteFile(goldenHitsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenHitsPath)
	if err != nil {
		t.Fatalf("%v (run with VSM_WRITE_GOLDEN_HITS=1 to record)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d member lines, %s has %d", len(got), goldenHitsPath, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", goldenHitsPath, i+1, got[i], want[i])
		}
	}
}
