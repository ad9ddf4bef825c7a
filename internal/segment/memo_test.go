package segment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/vsm"
)

// TestQueryTermResolvesOnceAdded: a query term the dictionary lacks is
// not remembered by the engine's token memo, so the first query after a
// document adds the term finds the document, and a token that did
// resolve keeps resolving after the document holding it is deleted and
// another adds it back.
func TestQueryTermResolvesOnceAdded(t *testing.T) {
	st, err := Open(Config{SealThreshold: 2, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(corpus.Document{Text: "reactor cooling pumps"}, corpus.Document{Text: "submarine hull"}); err != nil {
		t.Fatal(err)
	}
	query := vsm.Request{Query: "Zeppelins cooling", K: 10}
	for i := 0; i < 2; i++ {
		if hits := mustSearch(t, st, query); len(hits) != 1 || hits[0].Doc != 0 {
			t.Fatalf("before the add, query %d: hits %v, want doc 0 alone", i, hits)
		}
	}
	ids, err := st.Add(corpus.Document{Text: "a zeppelin over the harbour"})
	if err != nil {
		t.Fatal(err)
	}
	hits := mustSearch(t, st, query)
	if len(hits) != 2 || (hits[0].Doc != ids[0] && hits[1].Doc != ids[0]) {
		t.Fatalf("after the add: hits %v, want doc 0 and doc %d", hits, ids[0])
	}
	if err := st.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if hits := mustSearch(t, st, query); len(hits) != 1 || hits[0].Doc != 0 {
		t.Fatalf("after the delete: hits %v, want doc 0 alone", hits)
	}
	again, err := st.Add(corpus.Document{Text: "zeppelins again"})
	if err != nil {
		t.Fatal(err)
	}
	if hits := mustSearch(t, st, vsm.Request{Query: "zeppelin", K: 10}); len(hits) != 1 || hits[0].Doc != again[0] {
		t.Fatalf("after the second add: hits %v, want doc %d", hits, again[0])
	}
}

// TestTextQueriesWhileDictionaryGrows races text queries against adds
// that each bring a new term: a query for a term whose document was
// acknowledged finds it, whatever the memo saw of the term before. Run
// under -race.
func TestTextQueriesWhileDictionaryGrows(t *testing.T) {
	st, err := Open(Config{SealThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 200
	term := func(i int) string { return fmt.Sprintf("grow%dq", i) }
	gids := make([]corpus.DocID, n)
	var added atomic.Int64 // documents 0..added-1 are acknowledged
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			ids, err := st.Add(corpus.Document{Text: term(i) + " shared words"})
			if err != nil {
				t.Error(err)
				return
			}
			gids[i] = ids[0]
			added.Store(int64(i + 1))
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < 400; q++ {
				done := int(added.Load())
				// The next term is usually still absent: the miss must not
				// be remembered.
				reqs := []vsm.Request{{Query: term(done), K: 1}, {Query: term(done + 1), K: 1}}
				if done > 0 {
					reqs = append(reqs, vsm.Request{Query: "Shared " + term((q*7+r)%done), K: 1})
				}
				resps, err := st.SearchBatch(context.Background(), reqs)
				if err != nil {
					t.Error(err)
					return
				}
				if done > 0 {
					j := (q*7 + r) % done
					if hits := resps[2].Hits; len(hits) != 1 || hits[0].Doc != gids[j] {
						t.Errorf("reader %d: %s after its add: hits %v, want doc %d", r, term(j), hits, gids[j])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if hits := mustSearch(t, st, vsm.Request{Query: term(i), K: 1}); len(hits) != 1 || hits[0].Doc != gids[i] {
			t.Fatalf("%s: hits %v, want doc %d", term(i), hits, gids[i])
		}
	}
}
