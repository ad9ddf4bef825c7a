package segment

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// TestStoreMaxScoreMatchesExhaustive asserts that MaxScore execution
// through the segmented store: memtable (incremental term-level
// bounds) plus sealed segments (exact bounds from seal), with
// tombstones filtered before scoring in every shard,
// returns exactly the documents and order of exhaustive execution,
// scores within 1e-9, for both scoring functions and k from selective
// to full-collection.
func TestStoreMaxScoreMatchesExhaustive(t *testing.T) {
	for _, scoring := range []vsm.Scoring{vsm.Cosine, vsm.BM25} {
		scoring := scoring
		t.Run(scoring.String(), func(t *testing.T) {
			for trial := int64(0); trial < 3; trial++ {
				runStoreDAATTrial(t, scoring, trial)
			}
		})
	}
}

func runStoreDAATTrial(t *testing.T, scoring vsm.Scoring, trial int64) {
	t.Helper()
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 90, 500+trial)
	rng := rand.New(rand.NewSource(9100 + trial))
	st, err := Open(Config{
		Scoring:           scoring,
		Analyzer:          an,
		SealThreshold:     7 + int(trial),
		DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var gids []corpus.DocID
	for _, doc := range docs {
		ids, err := st.Add(doc)
		if err != nil {
			t.Fatal(err)
		}
		gids = append(gids, ids[0])
		if rng.Float64() < 0.2 && len(gids) > 1 {
			i := rng.Intn(len(gids))
			if err := st.Delete(gids[i]); err != nil {
				t.Fatal(err)
			}
			gids = append(gids[:i], gids[i+1:]...)
		}
		if rng.Intn(15) == 0 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(25) == 0 {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for qi := 0; qi < 14; qi++ {
		q := queryFrom(docs[rng.Intn(len(docs))], rng.Intn(25), 2+rng.Intn(4))
		terms := an.Analyze(q)
		for _, k := range []int{1, 10, 100} {
			var ex vsm.ExecStats
			oracle := searchMode(t, st, terms, k, vsm.ExecExhaustive, &ex)
			for _, mode := range []vsm.ExecMode{vsm.ExecMaxScore} {
				var ms vsm.ExecStats
				pruned := searchMode(t, st, terms, k, mode, &ms)
				if len(pruned) != len(oracle) {
					t.Fatalf("trial %d q%d k=%d %s: %d results vs oracle %d",
						trial, qi, k, mode, len(pruned), len(oracle))
				}
				for i := range pruned {
					if pruned[i].Doc != oracle[i].Doc {
						t.Fatalf("trial %d q%d k=%d %s rank %d: doc %d vs oracle %d\npruned: %v\noracle: %v",
							trial, qi, k, mode, i, pruned[i].Doc, oracle[i].Doc, pruned, oracle)
					}
					if math.Abs(pruned[i].Score-oracle[i].Score) > 1e-9 {
						t.Fatalf("trial %d q%d k=%d %s rank %d: score %.15f vs oracle %.15f",
							trial, qi, k, mode, i, pruned[i].Score, oracle[i].Score)
					}
				}
			}
		}
	}
}

// searchMode runs one analyzed query under an explicit Request.Mode,
// accumulating its work counters into stats when non-nil.
func searchMode(tb testing.TB, st *Store, terms []string, k int, mode vsm.ExecMode, stats *vsm.ExecStats) []vsm.Result {
	tb.Helper()
	if len(terms) == 0 {
		return nil
	}
	resp, err := st.SearchRequest(context.Background(), vsm.Request{Terms: terms, K: k, Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	if stats != nil {
		stats.Add(resp.Stats)
	}
	return resp.Hits
}

// TestStoreExecModeSurvivesReload checks that a store saved and
// reloaded (impact bounds persisted in the TPIX segments) still runs
// MaxScore and still agrees with its own exhaustive oracle.
func TestStoreExecModeSurvivesReload(t *testing.T) {
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 60, 777)
	st, err := Open(Config{Analyzer: an, SealThreshold: 10, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(docs...); err != nil {
		t.Fatal(err)
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
	rng := rand.New(rand.NewSource(3))
	for qi := 0; qi < 8; qi++ {
		terms := an.Analyze(queryFrom(docs[rng.Intn(len(docs))], qi, 3))
		oracle := searchMode(t, ld, terms, 10, vsm.ExecExhaustive, nil)
		for _, mode := range []vsm.ExecMode{vsm.ExecMaxScore} {
			var ms vsm.ExecStats
			pruned := searchMode(t, ld, terms, 10, mode, &ms)
			if len(pruned) != len(oracle) {
				t.Fatalf("q%d %s: %d vs %d results", qi, mode, len(pruned), len(oracle))
			}
			for i := range pruned {
				if pruned[i].Doc != oracle[i].Doc || math.Abs(pruned[i].Score-oracle[i].Score) > 1e-9 {
					t.Fatalf("q%d %s rank %d: (%d, %.12f) vs (%d, %.12f)", qi, mode, i,
						pruned[i].Doc, pruned[i].Score, oracle[i].Doc, oracle[i].Score)
				}
			}
		}
	}
}
