package segment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

const goldenStoreHitsPath = "testdata/golden_store_hits.txt"

// goldenStoreHits drives one store per scorer through a seeded stream
// of adds, deletes, flushes and compactions, with a save and reopen —
// heap, then mapped, the stream carrying on over the mapped store — in
// the middle. At seven checkpoints it submits four six-member batches —
// local statistics, local behind a caller's filter, injected statistics,
// and the two mixed behind the filter — with k ∈ {1, 10, 100}, and
// renders one line per member: the work counters, then every hit as
// doc:score-bits.
func goldenStoreHits(t *testing.T) []string {
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 260, 4100)
	ctx := context.Background()
	ks := []int{1, 10, 10, 1, 10, 100}
	keep := func(gid corpus.DocID) bool { return gid%3 != 0 }

	var lines []string
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		rng := rand.New(rand.NewSource(4200))
		st, err := Open(Config{Scoring: scoring, Analyzer: an, SealThreshold: 23, DisableCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		// The statistics a router would inject: this store as one shard of
		// three, every df a little higher than its own.
		global := func(terms []string) *vsm.GlobalStats {
			n, totalLen, df := st.LocalStats()
			g := &vsm.GlobalStats{Docs: 3 * n, TotalLen: 3*totalLen + 131, DF: make([]int, len(terms))}
			for i, term := range terms {
				g.DF[i] = 2*df[term] + 1
			}
			return g
		}
		checkpoint := func(label string) {
			for b, batch := range []struct{ keep, global, mixed bool }{
				{}, {keep: true}, {global: true}, {keep: true, global: true, mixed: true},
			} {
				reqs := make([]vsm.Request, len(ks))
				for i := range reqs {
					q := queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 2+rng.Intn(4))
					reqs[i] = vsm.Request{Terms: an.Analyze(q), K: ks[i]}
					if batch.keep {
						reqs[i].Keep = keep
					}
					if batch.global && !(batch.mixed && i%2 == 1) {
						reqs[i].Global = global(reqs[i].Terms)
					}
				}
				resps, err := st.SearchBatch(ctx, reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, resp := range resps {
					var sb strings.Builder
					s := resp.Stats
					fmt.Fprintf(&sb, "%v %s batch %d member %d k=%d scored=%d filtered=%d postings=%d blocks=%d hits",
						scoring, label, b, i, reqs[i].K, s.DocsScored, s.DocsFiltered, s.Postings, s.BlocksDecoded)
					for _, h := range resp.Hits {
						fmt.Fprintf(&sb, " %d:%016x", h.Doc, math.Float64bits(h.Score))
					}
					lines = append(lines, sb.String())
				}
			}
		}

		var alive []corpus.DocID
		for i, doc := range docs {
			ids, err := st.Add(doc)
			if err != nil {
				t.Fatal(err)
			}
			alive = append(alive, ids[0])
			for rng.Float64() < 0.2 {
				j := rng.Intn(len(alive))
				if err := st.Delete(alive[j]); err != nil {
					t.Fatal(err)
				}
				alive = append(alive[:j], alive[j+1:]...)
			}
			switch rng.Intn(40) {
			case 0:
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := st.compactOnce(3); err != nil {
					t.Fatal(err)
				}
			}
			switch i {
			case 60, 120, 220:
				checkpoint(fmt.Sprintf("after %d adds", i+1))
			case 150:
				dir := t.TempDir()
				if err := st.Save(dir); err != nil {
					t.Fatal(err)
				}
				st.Close()
				for _, mapped := range []bool{false, true} {
					if st, err = Load(dir, Config{Analyzer: an, Mapped: mapped, SealThreshold: 23, DisableCompaction: true}); err != nil {
						t.Fatal(err)
					}
					checkpoint(fmt.Sprintf("reloaded mapped=%v", mapped))
					if !mapped {
						st.Close()
					}
				}
			}
		}
		checkpoint("at the end")
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		checkpoint("compacted")
		st.Close()
	}
	return lines
}

// TestGoldenStoreHits holds Store.SearchBatch to the hits and work
// counters recorded in testdata/golden_store_hits.txt at the commit
// before the store was given one engine (PR 22's parent), when every
// sealed segment and the memtable ran an engine of its own and the store
// merged their answers. SEGMENT_WRITE_GOLDEN_HITS=1 rewrites the file —
// only for a change that means to move a score or a counter.
func TestGoldenStoreHits(t *testing.T) {
	got := goldenStoreHits(t)
	if os.Getenv("SEGMENT_WRITE_GOLDEN_HITS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStoreHitsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenStoreHitsPath)
	if err != nil {
		t.Fatalf("%v (run with SEGMENT_WRITE_GOLDEN_HITS=1 to record)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d member lines, %s has %d", len(got), goldenStoreHitsPath, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", goldenStoreHitsPath, i+1, got[i], want[i])
		}
	}
}
