package segment

import (
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// TestMergeEquivalenceProperty is the subsystem's correctness anchor:
// for random interleavings of adds, deletes, flushes, and compactions
// (busy steps, quiet folds and full compactions),
// searching the segmented store must return exactly the documents — and
// the same scores to within 1e-9 — as a from-scratch index.Build over
// the surviving documents. This holds because every shard scores with
// global live statistics and tombstones are filtered before ranking.
func TestMergeEquivalenceProperty(t *testing.T) {
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			for trial := int64(0); trial < 4; trial++ {
				runEquivalenceTrial(t, scoring, trial)
			}
		})
	}
}

func runEquivalenceTrial(t *testing.T, scoring vsm.Scoring, trial int64) {
	t.Helper()
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 70, 100+trial)
	rng := rand.New(rand.NewSource(7000 + trial))

	st, err := Open(Config{
		Scoring:  scoring,
		Analyzer: an,
		// Tiny threshold and no auto-compaction: the interleaving itself
		// controls the segment layout, including explicit compactions.
		SealThreshold:     5 + int(trial),
		fanout:            3,
		DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// alive[gid] = original document, insertion-ordered by gid.
	type entry struct {
		gid corpus.DocID
		doc corpus.Document
	}
	var alive []entry
	deleteRandom := func() {
		if len(alive) == 0 {
			return
		}
		i := rng.Intn(len(alive))
		if err := st.Delete(alive[i].gid); err != nil {
			t.Fatalf("trial %d: delete %d: %v", trial, alive[i].gid, err)
		}
		alive = append(alive[:i], alive[i+1:]...)
	}

	for _, doc := range docs {
		ids, err := st.Add(doc)
		if err != nil {
			t.Fatalf("trial %d: add: %v", trial, err)
		}
		alive = append(alive, entry{gid: ids[0], doc: doc})
		for rng.Float64() < 0.3 {
			deleteRandom()
		}
		switch rng.Intn(12) {
		case 0:
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		case 1:
			// One background-policy step, synchronously.
			if _, err := st.compactOnce(false); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		case 3:
			// The store goes quiet: fold, synchronously.
			for {
				merged, err := st.compactOnce(true)
				if err != nil {
					t.Fatal(err)
				}
				if !merged {
					break
				}
			}
		}
	}
	if len(alive) < 10 {
		t.Fatalf("trial %d: only %d survivors, interleaving degenerate", trial, len(alive))
	}

	// Reference: a from-scratch build over the survivors, in global-ID
	// order, with the same analyzer and no pruning.
	refDocs := make([]corpus.Document, len(alive))
	gidToRef := make(map[corpus.DocID]corpus.DocID, len(alive))
	for i, e := range alive {
		refDocs[i] = corpus.Document{Title: e.doc.Title, Text: e.doc.Text}
		gidToRef[e.gid] = corpus.DocID(i)
	}
	refCorpus, err := corpus.Build(refDocs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	refIdx, err := index.Build(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := vsm.NewEngine(refIdx, an, scoring)
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]string, 0, 18)
	for i := 0; i < 16; i++ {
		// Mix queries drawn from survivors and from deleted docs; the
		// latter exercise terms whose live df dropped (possibly to 0).
		queries = append(queries, queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 3+rng.Intn(4)))
	}
	queries = append(queries, "zzzzunseenterm", "")

	for _, q := range queries {
		// Full-retrieval comparison: every matching survivor, no top-k
		// boundary, so document sets and per-document scores must agree.
		all := len(alive) + 5
		got := mustSearch(t, st, vsm.Request{Query: q, K: all})
		want := mustSearch(t, refEng, vsm.Request{Query: q, K: all})
		if len(got) != len(want) {
			t.Fatalf("trial %d query %q: store returned %d docs, reference %d",
				trial, q, len(got), len(want))
		}
		gotScores := make(map[corpus.DocID]float64, len(got))
		for _, r := range got {
			ref, ok := gidToRef[r.Doc]
			if !ok {
				t.Fatalf("trial %d query %q: store returned dead/unknown doc %d", trial, q, r.Doc)
			}
			gotScores[ref] = r.Score
		}
		for _, r := range want {
			gs, ok := gotScores[r.Doc]
			if !ok {
				t.Fatalf("trial %d query %q: reference doc %d missing from store results",
					trial, q, r.Doc)
			}
			if math.Abs(gs-r.Score) > 1e-9 {
				t.Fatalf("trial %d query %q doc %d: store score %.12f, reference %.12f",
					trial, q, r.Doc, gs, r.Score)
			}
		}
		// Top-k path: the k best scores must match the reference's, even
		// if exact FP ties order differently across shards.
		const k = 5
		gotK := mustSearch(t, st, vsm.Request{Query: q, K: k})
		wantK := mustSearch(t, refEng, vsm.Request{Query: q, K: k})
		if len(gotK) != len(wantK) {
			t.Fatalf("trial %d query %q: top-%d sizes differ: %d vs %d",
				trial, q, k, len(gotK), len(wantK))
		}
		for i := range gotK {
			if math.Abs(gotK[i].Score-wantK[i].Score) > 1e-9 {
				t.Fatalf("trial %d query %q rank %d: score %.12f vs reference %.12f",
					trial, q, i, gotK[i].Score, wantK[i].Score)
			}
		}
	}
}

// TestEquivalenceSurvivesReload runs a smaller interleaving, saves,
// reloads, and checks the reloaded store still matches the reference
// build — persistence must not perturb scoring.
func TestEquivalenceSurvivesReload(t *testing.T) {
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 40, 11)
	rng := rand.New(rand.NewSource(77))
	st, err := Open(Config{Analyzer: an, SealThreshold: 6, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	var alive []corpus.Document
	var gids []corpus.DocID
	for _, doc := range docs {
		ids, err := st.Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		alive = append(alive, doc)
		gids = append(gids, ids[0])
		if rng.Float64() < 0.25 && len(alive) > 1 {
			i := rng.Intn(len(alive))
			if err := st.Delete(gids[i]); err != nil {
				t.Fatal(err)
			}
			alive = append(alive[:i], alive[i+1:]...)
			gids = append(gids[:i], gids[i+1:]...)
		}
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ld, err := Load(dir, Config{Analyzer: an, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	refDocs := make([]corpus.Document, len(alive))
	for i, d := range alive {
		refDocs[i] = corpus.Document{Title: d.Title, Text: d.Text}
	}
	refCorpus, err := corpus.Build(refDocs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	refIdx, err := index.Build(refCorpus)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := vsm.NewEngine(refIdx, an, vsm.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q := queryFrom(docs[rng.Intn(len(docs))], rng.Intn(20), 4)
		got := mustSearch(t, ld, vsm.Request{Query: q, K: len(alive)})
		want := mustSearch(t, refEng, vsm.Request{Query: q, K: len(alive)})
		if len(got) != len(want) {
			t.Fatalf("query %q: %d vs %d results", q, len(got), len(want))
		}
		for j := range got {
			if math.Abs(got[j].Score-want[j].Score) > 1e-9 {
				t.Fatalf("query %q rank %d: %.12f vs %.12f", q, j, got[j].Score, want[j].Score)
			}
		}
	}
}
