package segment

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// assertOneDictionary requires every sealed segment of st to hold a
// frozen view of the store's dictionary — no term → ID map, no
// frequencies — covering exactly its lists, whose terms are the store's
// own strings rather than copies of them.
func assertOneDictionary(t *testing.T, step string, st *Store) {
	t.Helper()
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.segs) == 0 {
		t.Fatalf("%s: no sealed segment to check", step)
	}
	for i, sg := range st.segs {
		v := sg.idx.Vocab()
		if !v.Frozen() {
			t.Fatalf("%s: segment %d holds a dictionary of its own", step, i)
		}
		if v.Size() != sg.idx.NumTerms() || v.Size() > st.vocab.Size() {
			t.Fatalf("%s: segment %d: view of %d terms, %d lists, store has %d terms",
				step, i, v.Size(), sg.idx.NumTerms(), st.vocab.Size())
		}
		for id := textproc.TermID(0); int(id) < v.Size(); id++ {
			got, want := v.Term(id), st.vocab.Term(id)
			if len(got) != len(want) || unsafe.StringData(got) != unsafe.StringData(want) {
				t.Fatalf("%s: segment %d term %d %q is not the store's %q", step, i, id, got, want)
			}
		}
	}
}

// TestSegmentsShareOneDictionary drives a store through seals, a
// background merge, Compact, more seals, and Save + Load in heap and
// mapped modes, and holds it to one dictionary after each step: no
// segment, however it came to be, holds a copy of the store's terms.
// Hits stay bit-identical across the reopen.
func TestSegmentsShareOneDictionary(t *testing.T) {
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 160, 30)
	st, err := Open(Config{Analyzer: an, SealThreshold: 10, CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ids, err := st.Add(docs[:60]...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(ids); i += 9 {
		if err := st.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.compactRuns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never merged: %+v", st.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertOneDictionary(t, "seal and background merge", st)

	if _, err := st.Add(docs[60:100]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	assertOneDictionary(t, "Compact", st)

	// New terms after the compaction grow the dictionary past every
	// existing view; fewer seals than the fanout are not merged while
	// ingest is busy, so the layout usually reaches Save as it is.
	if _, err := st.Add(docs[100:130]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	assertOneDictionary(t, "seal after Compact", st)

	queries := make([]string, 10)
	for i := range queries {
		queries[i] = queryFrom(docs[(i*13)%130], i, 4)
	}
	want := make([][]vsm.Result, len(queries))
	for i, q := range queries {
		want[i] = mustSearch(t, st, vsm.Request{Query: q, K: 10})
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		ld, err := Load(dir, Config{Analyzer: an, DisableCompaction: true, Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		step := fmt.Sprintf("Load (mapped %v)", mapped)
		assertOneDictionary(t, step, ld)
		for i, q := range queries {
			assertSameHits(t, fmt.Sprintf("%s q%d", step, i), mustSearch(t, ld, vsm.Request{Query: q, K: 10}), want[i])
		}
		// A loaded store keeps growing its one dictionary.
		if _, err := ld.Add(docs[130:]...); err != nil {
			t.Fatal(err)
		}
		if err := ld.Flush(); err != nil {
			t.Fatal(err)
		}
		assertOneDictionary(t, step+" then seal", ld)
		ld.Close()
	}
}
