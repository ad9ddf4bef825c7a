package segment

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/telemetry"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// quietLayout predicts the levels, oldest segment first, that a quiet
// fold leaves of a stack with levels[l] segments at level l and no run
// of heap segments busy compaction would merge: from level 0 up, two or
// more segments at a level (counting one carried up from below) merge
// into one at the next level, and a lone one stays.
func quietLayout(levels []int) []int {
	var out []int
	carry := 0
	for l := 0; l < len(levels) || carry > 0; l++ {
		n := carry
		if l < len(levels) {
			n += levels[l]
		}
		carry = 0
		switch {
		case n >= 2:
			carry = 1
		case n == 1:
			out = append(out, l)
		}
	}
	slices.Reverse(out)
	return out
}

// layout is the store's segment levels, oldest first.
func layout(st *Store) []int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]int, len(st.segs))
	for i, sg := range st.segs {
		out[i] = sg.level
	}
	return out
}

// folded reports whether no two adjacent segments share a level.
func folded(levels []int) bool {
	for i := 1; i < len(levels); i++ {
		if levels[i] == levels[i-1] {
			return false
		}
	}
	return true
}

// waitLayout waits until the store's layout satisfies ok.
func waitLayout(t *testing.T, st *Store, what string, ok func([]int) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(layout(st)) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: layout %v", what, layout(st))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rankings answers every query in full against s.
func rankings(t *testing.T, s vsm.RequestSearcher, an *textproc.Analyzer, queries []string, k int) [][]vsm.Result {
	t.Helper()
	out := make([][]vsm.Result, len(queries))
	for i, q := range queries {
		out[i] = mustSearch(t, s, vsm.Request{Terms: an.Analyze(q), K: k})
	}
	return out
}

func TestFindQuietRun(t *testing.T) {
	mk := func(levels ...int) []*seg {
		out := make([]*seg, len(levels))
		for i, l := range levels {
			out[i] = &seg{level: l, idx: &index.Index{}}
		}
		return out
	}
	cases := []struct {
		levels     []int
		start, end int
	}{
		{[]int{1, 1, 0, 0, 0}, 2, 5},
		{[]int{1, 1, 1}, 0, 3},
		{[]int{2, 1, 1, 0}, 1, 3},
		{[]int{2, 1, 0}, -1, -1},
		{[]int{0}, -1, -1},
		{nil, -1, -1},
	}
	for i, c := range cases {
		s, e := findQuietRun(mk(c.levels...))
		if s != c.start || e != c.end {
			t.Errorf("case %d (%v): got [%d,%d), want [%d,%d)", i, c.levels, s, e, c.start, c.end)
		}
	}
	for _, c := range []struct{ levels, want []int }{
		{[]int{3, 2}, []int{2}},       // [L1 L1 L0 L0 L0] → L0s → L1 → [L1 L1 L1] → [L2]
		{[]int{1, 0, 1}, []int{2, 0}}, // nothing to fold
		{[]int{2, 1, 1}, []int{3}},    // every level carries
		{[]int{1, 1}, []int{1, 0}},
		{nil, nil},
	} {
		if got := quietLayout(c.levels); !slices.Equal(got, c.want) {
			t.Errorf("quietLayout(%v) = %v, want %v", c.levels, got, c.want)
		}
	}
}

// TestQuietFoldAfterBurst seals a burst of documents, each seal
// settled by busy (fan-out 4) steps as the background compactor takes
// them, then lets the store go quiet: the background compactor must
// fold the stack to the layout quietLayout predicts from its level
// counts, and every ranking must stay bit for bit what it was before
// the fold, and what a from-scratch rebuild over the survivors answers.
func TestQuietFoldAfterBurst(t *testing.T) {
	const seal, seals = 8, 23 // 23 = 16 + 4 + 3: [L2 L1 L0 L0 L0] while busy
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, seal*seals, 40)
	st, err := Open(Config{Scoring: vsm.BM25, Analyzer: an, SealThreshold: seal, CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var alive []corpus.DocID
	for lo := 0; lo < len(docs); lo += seal {
		ids, err := st.Add(docs[lo : lo+seal]...)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id%5 == 2 {
				if err := st.Delete(id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			alive = append(alive, id)
		}
		for {
			merged, err := st.compactOnce(false)
			if err != nil {
				t.Fatal(err)
			}
			if !merged {
				break
			}
		}
	}

	queries := make([]string, 12)
	for i := range queries {
		queries[i] = queryFrom(docs[(i*37)%len(docs)], i, 3)
	}
	// No compaction step runs while compactMu is held: this is the
	// layout the quiet fold starts from.
	st.compactMu.Lock()
	levels := st.Stats().Levels
	start := layout(st)
	before := rankings(t, st, an, queries, len(docs))
	st.compactMu.Unlock()
	want := quietLayout(levels)
	if folded(start) {
		t.Logf("the store went quiet during the burst: layout %v before the fold", start)
	}

	waitLayout(t, st, "quiet fold", func(l []int) bool { return slices.Equal(l, want) })
	if !folded(want) || len(want) > bits.Len(seals) {
		t.Fatalf("predicted layout %v is not a fold of %d seals", want, seals)
	}
	after := rankings(t, st, an, queries, len(docs))
	for i := range queries {
		assertSameHits(t, fmt.Sprintf("q%d folded vs before", i), after[i], before[i])
	}

	// A rebuild over the survivors numbers them densely in gid order.
	refDocs := make([]corpus.Document, len(alive))
	for i, gid := range alive {
		d, ok := st.Doc(gid)
		if !ok {
			t.Fatalf("survivor %d not found", gid)
		}
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
	refEng, err := vsm.NewEngine(refIdx, an, vsm.BM25)
	if err != nil {
		t.Fatal(err)
	}
	// Scores sum a query's terms in dictionary order, and the rebuild,
	// which never saw the deleted documents, numbers some terms in
	// another order: scores agree to rounding, not to the bit.
	for i, ref := range rankings(t, refEng, an, queries, len(docs)) {
		if len(ref) != len(after[i]) {
			t.Fatalf("q%d: %d hits folded, %d rebuilt", i, len(after[i]), len(ref))
		}
		for j := range ref {
			if got := after[i][j]; got.Doc != alive[ref[j].Doc] || math.Abs(got.Score-ref[j].Score) > 1e-9 {
				t.Fatalf("q%d rank %d: (%d,%v) folded, (%d,%v) rebuilt", i, j, got.Doc, got.Score, alive[ref[j].Doc], ref[j].Score)
			}
		}
	}
}

// TestQuietTrickleRewritesLogN seals one batch at a time and lets the
// store go quiet after every seal. Each merge lifts its documents one
// level, and a level-l segment holds at least 2^l seals, so the
// documents rewritten stay within N·⌊log₂ seals⌋; a full fold on every
// quiet tick would rewrite the whole store after each seal, here
// 8·(2+3+…+32) = 4 216 documents against 1 280.
func TestQuietTrickleRewritesLogN(t *testing.T) {
	const seal, seals = 8, 32
	docs := synthDocs(t, seal*seals, 41)
	st, err := Open(Config{SealThreshold: seal, CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := telemetry.NewRegistry()
	st.EnableMetrics(reg, nil)
	for lo := 0; lo < len(docs); lo += seal {
		if _, err := st.Add(docs[lo : lo+seal]...); err != nil {
			t.Fatal(err)
		}
		waitLayout(t, st, fmt.Sprintf("fold after seal %d", lo/seal+1), folded)
	}
	if got, want := layout(st), []int{5}; !slices.Equal(got, want) {
		t.Fatalf("32 seals folded to %v, want %v", got, want)
	}
	// Read as an operator would. Every document now sits at level 5,
	// rewritten once per level: the count reaches its bound.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(fams, func(f telemetry.ParsedFamily) bool { return f.Name == "toppriv_compaction_docs_total" })
	if i < 0 || len(fams[i].Samples) != 1 {
		t.Fatal("toppriv_compaction_docs_total not exposed")
	}
	bound := float64(len(docs) * (bits.Len(seals) - 1))
	if got := fams[i].Samples[0].Value; got != bound {
		t.Fatalf("compaction rewrote %v documents, want N·⌊log₂ seals⌋ = %v", got, bound)
	}
}

// TestQuietFoldSkipsLoadedAndMapped loads a saved [L1 L0] stack with
// the background compactor on. Neither load folds before it seals. After
// a seal, the heap load folds the three segments into one; the mapped
// load merges nothing, since two of its three segments are mapped, so
// its resident bytes grow by the new segment's own and no more. A
// second seal gives the mapped load a run of two heap segments, which
// the quiet pass merges while the mapped ones stay as they are.
func TestQuietFoldSkipsLoadedAndMapped(t *testing.T) {
	const seal = 8
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 5*seal, 42)
	st, err := Open(Config{Analyzer: an, SealThreshold: seal, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(docs[:3*seal]...); err != nil {
		t.Fatal(err)
	}
	if _, err := st.compactRun(0, 2); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = queryFrom(docs[(i*11)%len(docs)], i, 3)
	}

	quietFor := func() { time.Sleep(100 * time.Millisecond) } // ten intervals
	var heapHits [][]vsm.Result
	for _, mapped := range []bool{false, true} {
		ld, err := Load(dir, Config{Analyzer: an, SealThreshold: seal, CompactInterval: 10 * time.Millisecond, Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer ld.Close()
		step := fmt.Sprintf("mapped %v", mapped)
		quietFor()
		if got := layout(ld); !slices.Equal(got, []int{1, 0}) {
			t.Fatalf("%s: a load that has not sealed folded to %v", step, got)
		}
		resident := ld.ComputeStats().ResidentBytes
		if _, err := ld.Add(docs[3*seal : 4*seal]...); err != nil {
			t.Fatal(err)
		}
		if !mapped {
			waitLayout(t, ld, step+": quiet fold", func(l []int) bool { return slices.Equal(l, []int{2}) })
			heapHits = rankings(t, ld, an, queries, len(docs))
			continue
		}
		ld.mu.RLock()
		sealed := ld.segs[2]
		ld.mu.RUnlock()
		quietFor()
		if got := layout(ld); !slices.Equal(got, []int{1, 0, 0}) {
			t.Fatalf("%s: quiet pass merged a mapped segment: layout %v", step, got)
		}
		if got, want := ld.ComputeStats().ResidentBytes, resident+sealed.idx.ComputeStats().ResidentBytes; got != want {
			t.Fatalf("%s: resident %d B after a seal and a quiet pass, want %d", step, got, want)
		}
		for i, hits := range rankings(t, ld, an, queries, len(docs)) {
			assertSameHits(t, fmt.Sprintf("%s q%d vs heap load", step, i), hits, heapHits[i])
		}

		if _, err := ld.Add(docs[4*seal:]...); err != nil {
			t.Fatal(err)
		}
		waitLayout(t, ld, step+": quiet merge of the heap segments", func(l []int) bool { return slices.Equal(l, []int{1, 0, 1}) })
		ld.mu.RLock()
		mappedSegs := []bool{ld.segs[0].idx.Mapped(), ld.segs[1].idx.Mapped(), ld.segs[2].idx.Mapped()}
		merged := ld.segs[2]
		ld.mu.RUnlock()
		if !slices.Equal(mappedSegs, []bool{true, true, false}) {
			t.Fatalf("%s: mapped segments %v, want the loaded two", step, mappedSegs)
		}
		if got, want := ld.ComputeStats().ResidentBytes, resident+merged.idx.ComputeStats().ResidentBytes; got != want {
			t.Fatalf("%s: resident %d B after the heap merge, want %d", step, got, want)
		}
	}
}
