package segment

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// synthDocs returns n synthetic documents with raw text.
func synthDocs(t testing.TB, n int, seed int64) []corpus.Document {
	t.Helper()
	c, _, err := corpus.Synthesize(corpus.GenSpec{
		Seed: seed, NumDocs: n, NumTopics: 6, DocLenMin: 30, DocLenMax: 60,
	}, textproc.NewAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	return c.Docs
}

// mustSearch answers one request from a store or a reference engine. An
// error fails the test with Error, not Fatal: query goroutines call it.
func mustSearch(t testing.TB, s vsm.RequestSearcher, req vsm.Request) []vsm.Result {
	t.Helper()
	resp, err := s.SearchRequest(context.Background(), req)
	if err != nil {
		t.Error(err)
	}
	return resp.Hits
}

// queryFrom builds a query from consecutive words of a document.
func queryFrom(doc corpus.Document, start, n int) string {
	fields := splitWords(doc.Text)
	if len(fields) == 0 {
		return ""
	}
	start %= len(fields)
	end := start + n
	if end > len(fields) {
		end = len(fields)
	}
	out := ""
	for _, w := range fields[start:end] {
		out += w + " "
	}
	return out
}

func splitWords(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\n' || r == '\t' || r == '.' || r == ',' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func TestStoreAddSearchDelete(t *testing.T) {
	docs := synthDocs(t, 30, 1)
	st, err := Open(Config{SealThreshold: 8, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ids, err := st.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 30 {
		t.Fatalf("got %d ids", len(ids))
	}
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("ids not dense: %v", ids[:i+1])
		}
	}
	if st.NumDocs() != 30 {
		t.Fatalf("NumDocs = %d", st.NumDocs())
	}
	if st.NumSegments() < 3 {
		t.Fatalf("expected ≥3 sealed segments at threshold 8, got %d", st.NumSegments())
	}

	q := queryFrom(docs[5], 3, 5)
	res := mustSearch(t, st, vsm.Request{Query: q, K: 10})
	if len(res) == 0 {
		t.Fatalf("no results for %q", q)
	}
	found := false
	for _, r := range res {
		if r.Doc == ids[5] {
			found = true
		}
	}
	if !found {
		t.Fatalf("doc 5 not retrieved by its own words %q: %v", q, res)
	}

	if err := st.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ids[5]); err != ErrNotFound {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
	if st.NumDocs() != 29 {
		t.Fatalf("NumDocs after delete = %d", st.NumDocs())
	}
	for _, r := range mustSearch(t, st, vsm.Request{Query: q, K: 30}) {
		if r.Doc == ids[5] {
			t.Fatal("tombstoned doc still retrieved")
		}
	}
	if _, ok := st.Doc(ids[5]); ok {
		t.Fatal("tombstoned doc still visible via Doc")
	}
	if d, ok := st.Doc(ids[6]); !ok || d.Title != docs[6].Title {
		t.Fatalf("Doc(%d) = %+v, %v", ids[6], d, ok)
	}
}

// TestStoreReportsChangedDF: AddDF and DeleteDF report exactly the df
// entries their mutation changed — each distinct term of its documents
// once, at the live df LocalStats then holds, 0 for a term no live
// document holds any more — so a table kept by folding the reports in
// equals LocalStats after every mutation, across seals.
func TestStoreReportsChangedDF(t *testing.T) {
	docs := synthDocs(t, 60, 8)
	st, err := Open(Config{SealThreshold: 7, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	an := textproc.NewAnalyzer()
	table := map[string]int{}
	fold := func(label string, changed []TermDF, of []corpus.Document) {
		t.Helper()
		want := map[string]bool{}
		for _, d := range of {
			for _, term := range an.Analyze(d.Text) {
				want[term] = true
			}
		}
		seen := map[string]bool{}
		for _, e := range changed {
			if seen[e.Term] || !want[e.Term] {
				t.Fatalf("%s: %q reported twice, or not a term of the documents", label, e.Term)
			}
			seen[e.Term] = true
			if e.DF == 0 {
				delete(table, e.Term)
			} else {
				table[e.Term] = e.DF
			}
		}
		if len(seen) != len(want) {
			t.Fatalf("%s: %d entries reported for %d distinct terms", label, len(seen), len(want))
		}
		if _, _, df := st.LocalStats(); !maps.Equal(table, df) {
			t.Fatalf("%s: the folded reports hold %d terms, LocalStats %d", label, len(table), len(df))
		}
	}
	rng := rand.New(rand.NewSource(3))
	alive := map[corpus.DocID]corpus.Document{}
	for i := 0; i < len(docs); {
		n := min(1+rng.Intn(5), len(docs)-i)
		ids, changed, err := st.AddDF(docs[i : i+n]...)
		if err != nil {
			t.Fatal(err)
		}
		fold(fmt.Sprintf("add %d..%d", i, i+n), changed, docs[i:i+n])
		for j, id := range ids {
			alive[id] = docs[i+j]
		}
		i += n
		for id, doc := range alive {
			if rng.Intn(3) > 0 {
				break
			}
			changed, err := st.DeleteDF(id)
			if err != nil {
				t.Fatal(err)
			}
			fold(fmt.Sprintf("delete %d", id), changed, []corpus.Document{doc})
			delete(alive, id)
			if _, err := st.DeleteDF(id); err != ErrNotFound {
				t.Fatalf("second delete of %d: %v, want ErrNotFound", id, err)
			}
		}
	}
}

func TestStoreCompactPreservesResults(t *testing.T) {
	docs := synthDocs(t, 40, 2)
	st, err := Open(Config{SealThreshold: 6, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids, err := st.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Delete(ids[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		queries = append(queries, queryFrom(docs[i*4+1], i, 5))
	}
	before := make([][]vsm.Result, len(queries))
	for i, q := range queries {
		before[i] = mustSearch(t, st, vsm.Request{Query: q, K: 15})
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := st.NumSegments(); got != 1 {
		t.Fatalf("segments after full compaction = %d, want 1", got)
	}
	stats := st.Stats()
	if stats.Tombstones != 0 {
		t.Fatalf("tombstones after compaction = %d, want 0", stats.Tombstones)
	}
	for i, q := range queries {
		after := mustSearch(t, st, vsm.Request{Query: q, K: 15})
		if len(after) != len(before[i]) {
			t.Fatalf("query %q: %d results after compaction, %d before", q, len(after), len(before[i]))
		}
		for j := range after {
			if after[j].Doc != before[i][j].Doc {
				t.Fatalf("query %q rank %d: doc %d after, %d before", q, j, after[j].Doc, before[i][j].Doc)
			}
			if diff := after[j].Score - before[i][j].Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %q rank %d: score drifted by %g", q, j, diff)
			}
		}
	}
}

func TestBackgroundCompaction(t *testing.T) {
	docs := synthDocs(t, 32, 3)
	st, err := Open(Config{SealThreshold: 4, fanout: 2, CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(docs...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st.NumSegments() <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never converged: %+v", st.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.NumDocs() != 32 {
		t.Fatalf("NumDocs = %d after compaction", st.NumDocs())
	}
	res := mustSearch(t, st, vsm.Request{Query: queryFrom(docs[9], 2, 5), K: 5})
	if len(res) == 0 {
		t.Fatal("no results after background compaction")
	}
}

// TestCompactedListsAreFullBlocks drives sixteen seals of 256 documents
// through the background compactor, with deletes landing between adds
// so merges drop documents, and requires every list of every resulting
// segment to walk in exactly ⌈n/BlockSize⌉ blocks: a compacted segment
// is laid out as Build lays out a fresh index, with no partial block at
// the seams of the segments it was merged from.
func TestCompactedListsAreFullBlocks(t *testing.T) {
	docs := synthDocs(t, 16*256, 26)
	st, err := Open(Config{CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for start := 0; start < len(docs); start += 64 {
		ids, err := st.Add(docs[start : start+64]...)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id%7 == 3 {
				if err := st.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Wait until no run qualifies rather than for one segment: findRun
	// merges the maximal same-level run, so a compactor that falls behind
	// can fold five level-0 segments into one and leave a stack (say three
	// at level 1, three at level 0) that never reaches one segment.
	deadline := time.Now().Add(30 * time.Second)
	var segs []*seg
	for {
		st.mu.RLock()
		segs = st.segs
		start, _ := findRun(segs, st.cfg.fanout)
		settled := start < 0
		st.mu.RUnlock()
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never converged: %+v", st.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	var it index.Iterator
	lists, merged := 0, 0
	for _, sg := range segs {
		if sg.level > 0 {
			merged++
		}
		for tid := 0; tid < sg.idx.NumTerms(); tid++ {
			sg.idx.IterInto(textproc.TermID(tid), &it)
			n := it.Len()
			for it.Valid() && it.NextWindow() {
			}
			if want := (n + index.BlockSize - 1) / index.BlockSize; it.BlocksDecoded() != want {
				t.Fatalf("level-%d segment, term %d: %d postings walk in %d blocks, want %d",
					sg.level, tid, n, it.BlocksDecoded(), want)
			}
			if n > index.BlockSize {
				lists++
			}
		}
	}
	if merged == 0 {
		t.Fatalf("no compacted segment to check: %+v", st.Stats())
	}
	if lists == 0 {
		t.Fatal("no list spans more than one block")
	}
}

func TestStorePersistenceRoundTrip(t *testing.T) {
	docs := synthDocs(t, 25, 4)
	dir := t.TempDir()
	st, err := Open(Config{Scoring: vsm.BM25, SealThreshold: 7, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 11, 19} {
		if err := st.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		queryFrom(docs[3], 0, 5),
		queryFrom(docs[12], 4, 4),
		queryFrom(docs[24], 1, 6),
	}
	want := make([][]vsm.Result, len(queries))
	for i, q := range queries {
		want[i] = mustSearch(t, st, vsm.Request{Query: q, K: 12})
	}
	wantStats := st.Stats()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ld, err := Load(dir, Config{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if got := ld.NumDocs(); got != wantStats.LiveDocs {
		t.Fatalf("loaded NumDocs = %d, want %d", got, wantStats.LiveDocs)
	}
	if got := ld.Stats().NextID; got != wantStats.NextID {
		t.Fatalf("loaded NextID = %d, want %d", got, wantStats.NextID)
	}
	for i, q := range queries {
		got := mustSearch(t, ld, vsm.Request{Query: q, K: 12})
		if len(got) != len(want[i]) {
			t.Fatalf("query %q: %d results loaded, want %d", q, len(got), len(want[i]))
		}
		for j := range got {
			if got[j].Doc != want[i][j].Doc {
				t.Fatalf("query %q rank %d: doc %d loaded, want %d", q, j, got[j].Doc, want[i][j].Doc)
			}
			if diff := got[j].Score - want[i][j].Score; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %q rank %d: score drifted by %g", q, j, diff)
			}
		}
	}
	// The loaded store stays live: adding and deleting keep working and
	// IDs continue from the manifest's next_id.
	nid, err := ld.Add(corpus.Document{Title: "new", Text: docs[0].Text})
	if err != nil {
		t.Fatal(err)
	}
	if nid[0] != corpus.DocID(wantStats.NextID) {
		t.Fatalf("post-load ID = %d, want %d", nid[0], wantStats.NextID)
	}
	if err := ld.Delete(nid[0]); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	docs := synthDocs(t, 200, 5)
	st, err := Open(Config{SealThreshold: 16, fanout: 2, CompactInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(docs[:50]...); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, d := range docs[50:] {
			if _, err := st.Add(d); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			q := queryFrom(docs[rng.Intn(len(docs))], rng.Intn(20), 4)
			mustSearch(t, st, vsm.Request{Query: q, K: 10})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			// Deleting an ID that may not exist yet is fine — ErrNotFound.
			_ = st.Delete(corpus.DocID(i * 3))
		}
	}()
	wg.Wait()
	stats := st.Stats()
	if stats.LiveDocs+stats.Tombstones == 0 {
		t.Fatalf("implausible stats %+v", stats)
	}
}

func TestStoreClosedOps(t *testing.T) {
	st, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := st.Add(corpus.Document{Text: "x"}); err != ErrClosed {
		t.Fatalf("Add on closed store: %v", err)
	}
	if err := st.Delete(0); err != ErrClosed {
		t.Fatalf("Delete on closed store: %v", err)
	}
	if err := st.Flush(); err != ErrClosed {
		t.Fatalf("Flush on closed store: %v", err)
	}
}

func TestStoreEmptySearch(t *testing.T) {
	st, err := Open(Config{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if res := mustSearch(t, st, vsm.Request{Query: "anything", K: 10}); res != nil {
		t.Fatalf("search on empty store = %v", res)
	}
	if _, ok := st.Doc(0); ok {
		t.Fatal("Doc on empty store")
	}
	if err := st.Delete(0); err != ErrNotFound {
		t.Fatalf("Delete on empty store: %v", err)
	}
}

func TestComputeStatsAggregates(t *testing.T) {
	docs := synthDocs(t, 20, 6)
	st, err := Open(Config{SealThreshold: 6, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(docs...); err != nil {
		t.Fatal(err)
	}
	s := st.ComputeStats()
	if s.NumDocs != 20 || s.NumTerms == 0 || s.NumPostings == 0 || s.MaxListLen == 0 {
		t.Fatalf("implausible aggregate stats %+v", s)
	}
}

func TestFindRun(t *testing.T) {
	mk := func(levels ...int) []*seg {
		out := make([]*seg, len(levels))
		for i, l := range levels {
			out[i] = &seg{level: l}
		}
		return out
	}
	cases := []struct {
		levels     []int
		fanout     int
		start, end int
	}{
		{[]int{0, 0, 0, 0}, 4, 0, 4},
		{[]int{1, 0, 0}, 2, 1, 3},
		{[]int{2, 1, 0}, 2, -1, -1},
		{[]int{2, 1, 1, 0, 0}, 2, 1, 3},
		{nil, 2, -1, -1},
	}
	for i, c := range cases {
		s, e := findRun(mk(c.levels...), c.fanout)
		if s != c.start || e != c.end {
			t.Errorf("case %d (%v): got [%d,%d), want [%d,%d)", i, c.levels, s, e, c.start, c.end)
		}
	}
}

func ExampleStore() {
	st, _ := Open(Config{SealThreshold: 2, DisableCompaction: true})
	defer st.Close()
	ids, _ := st.Add(
		corpus.Document{Title: "a", Text: "reactor cooling systems for submarines"},
		corpus.Document{Title: "b", Text: "helicopter rotor maintenance manual"},
		corpus.Document{Title: "c", Text: "submarine reactor fuel handling"},
	)
	req := vsm.Request{Query: "rotor maintenance", K: 10}
	resp, _ := st.SearchRequest(context.Background(), req)
	for _, r := range resp.Hits {
		doc, _ := st.Doc(r.Doc)
		fmt.Println("before delete:", doc.Title)
	}
	_ = st.Delete(ids[1])
	resp, _ = st.SearchRequest(context.Background(), req)
	fmt.Println("after delete:", len(resp.Hits), "hits,", st.NumDocs(), "live docs")
	// Output:
	// before delete: b
	// after delete: 0 hits, 2 live docs
}

// TestSaveIsCrashSafe asserts the generation discipline: a second Save
// must not disturb the files the current manifest references until the
// new manifest is in place, and stale generations are cleaned up after.
func TestSaveIsCrashSafe(t *testing.T) {
	docs := synthDocs(t, 20, 8)
	dir := t.TempDir()
	st, err := Open(Config{SealThreshold: 5, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Add(docs[:10]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	gen1, err := filepath.Glob(filepath.Join(dir, "seg-000001-*"))
	if err != nil || len(gen1) == 0 {
		t.Fatalf("generation-1 files: %v, %v", gen1, err)
	}
	// Mutate (including a compaction that shrinks the stack) and save
	// again: generation 2 replaces generation 1 atomically.
	if _, err := st.Add(docs[10:]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if !strings.Contains(f, "seg-000002-") {
			t.Fatalf("stale generation file survived: %s (all: %v)", f, left)
		}
	}
	ld, err := Load(dir, Config{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if ld.NumDocs() != 20 {
		t.Fatalf("loaded %d docs, want 20", ld.NumDocs())
	}
}
