package textproc

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestVocabAddAndLookup(t *testing.T) {
	v := NewVocab()
	a := v.Add("apache")
	b := v.Add("tank")
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if v.Add("apache") != a {
		t.Error("re-adding a term changed its ID")
	}
	if v.ID("apache") != a || v.ID("tank") != b {
		t.Error("ID lookup mismatch")
	}
	if v.ID("missing") != InvalidTerm {
		t.Error("missing term should return InvalidTerm")
	}
	if v.Term(a) != "apache" || v.Term(b) != "tank" {
		t.Error("Term lookup mismatch")
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2", v.Size())
	}
}

// A stored term must not alias the text it was analyzed from, or the
// dictionary would pin every document a term was first seen in.
func TestVocabAddCopiesTerm(t *testing.T) {
	text := "apache helicopters Apache HELICOPTERS"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	v := NewVocab()
	for _, term := range NewAnalyzer().Analyze(text) {
		stored := v.Term(v.Add(term))
		if p := uintptr(unsafe.Pointer(unsafe.StringData(stored))); p >= lo && p < lo+uintptr(len(text)) {
			t.Errorf("stored term %q aliases the analyzed text", stored)
		}
		if p, q := unsafe.StringData(stored), unsafe.StringData(term); p == q {
			t.Errorf("stored term %q aliases the analyzed term", stored)
		}
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2 (apach, helicopt)", v.Size())
	}
}

func TestVocabObserveDoc(t *testing.T) {
	v := NewVocab()
	a := v.Add("alpha")
	b := v.Add("beta")
	v.ObserveDoc([]TermID{a, a, b})
	v.ObserveDoc([]TermID{a})
	if df := v.DocFreq(a); df != 2 {
		t.Errorf("DocFreq(a) = %d, want 2", df)
	}
	if df := v.DocFreq(b); df != 1 {
		t.Errorf("DocFreq(b) = %d, want 1", df)
	}
	if cf := v.CollFreq(a); cf != 3 {
		t.Errorf("CollFreq(a) = %d, want 3", cf)
	}
	if cf := v.CollFreq(b); cf != 1 {
		t.Errorf("CollFreq(b) = %d, want 1", cf)
	}
}

func TestVocabPrune(t *testing.T) {
	v := NewVocab()
	rare := v.Add("rare")
	common := v.Add("common")
	everywhere := v.Add("everywhere")
	for i := 0; i < 10; i++ {
		bag := []TermID{everywhere}
		if i < 5 {
			bag = append(bag, common)
		}
		if i == 0 {
			bag = append(bag, rare)
		}
		v.ObserveDoc(bag)
	}
	nv, remap := v.Prune(PruneSpec{MinDocFreq: 2})
	if remap[rare] != InvalidTerm {
		t.Error("rare term should be pruned by MinDocFreq")
	}
	if remap[common] == InvalidTerm || remap[everywhere] == InvalidTerm {
		t.Error("common terms should survive")
	}
	if nv.Size() != 2 {
		t.Errorf("pruned vocab size = %d, want 2", nv.Size())
	}
	if nv.DocFreq(remap[common]) != 5 || nv.DocFreq(remap[everywhere]) != 10 {
		t.Error("frequencies must carry over to the pruned vocab")
	}
}

// Property: Add is a bijection — IDs are dense and Term∘ID = identity.
func TestVocabBijectionProperty(t *testing.T) {
	f := func(words []string) bool {
		v := NewVocab()
		for _, w := range words {
			v.Add(w)
		}
		for i := 0; i < v.Size(); i++ {
			if v.ID(v.Term(TermID(i))) != TermID(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestVocabPrefix: a view answers for its first n terms as the
// dictionary does, shares the dictionary's strings, refuses Add, and
// does not see terms added after it was taken.
func TestVocabPrefix(t *testing.T) {
	v := NewVocab()
	for _, w := range []string{"alpha", "beta", "gamma"} {
		v.Add(w)
	}
	view := v.Prefix(2)
	if !view.Frozen() || v.Frozen() {
		t.Fatalf("Frozen: view %v, dictionary %v", view.Frozen(), v.Frozen())
	}
	v.Add("delta")
	if view.Size() != 2 {
		t.Fatalf("view Size = %d, want 2", view.Size())
	}
	for id := TermID(0); id < 2; id++ {
		if got, want := view.Term(id), v.Term(id); unsafe.StringData(got) != unsafe.StringData(want) {
			t.Errorf("view term %d %q is a copy of %q", id, got, want)
		}
		if got := view.ID(v.Term(id)); got != id {
			t.Errorf("view ID(%q) = %d, want %d", v.Term(id), got, id)
		}
	}
	for _, w := range []string{"gamma", "delta", "missing"} {
		if got := view.ID(w); got != InvalidTerm {
			t.Errorf("view ID(%q) = %d, want InvalidTerm", w, got)
		}
	}
	if terms := view.Terms(); len(terms) != 2 || terms[0] != "alpha" || terms[1] != "beta" {
		t.Errorf("view Terms = %v", terms)
	}
	defer func() {
		if recover() == nil {
			t.Error("Add on a view did not panic")
		}
	}()
	view.Add("epsilon")
}

// TestVocabPrefixReadWhileGrowing reads views from other goroutines
// while the dictionary grows past them — the segment store's sealed
// segments against its live dictionary. The race detector is the judge.
func TestVocabPrefixReadWhileGrowing(t *testing.T) {
	v := NewVocab()
	for i := 0; i < 100; i++ {
		v.Add(fmt.Sprintf("seed%d", i))
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		view := v.Prefix(v.Size())
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				for id := TermID(0); int(id) < view.Size(); id++ {
					if want := fmt.Sprintf("seed%d", id); view.Term(id) != want {
						errs <- fmt.Errorf("view term %d = %q, want %q", id, view.Term(id), want)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		v.Add(fmt.Sprintf("grown%d", i))
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// AddBytes interns as Add does, and a stored term never aliases the
// caller's buffer.
func TestVocabAddBytes(t *testing.T) {
	v := NewVocab()
	buf := []byte("apache")
	id := v.AddBytes(buf)
	copy(buf, "zzzzzz")
	if got := v.Term(id); got != "apache" {
		t.Fatalf("stored term %q changed with the caller's buffer", got)
	}
	if v.AddBytes([]byte("apache")) != id || v.Add("apache") != id || v.Size() != 1 {
		t.Fatalf("re-adding changed the dictionary: size %d", v.Size())
	}
	if allocs := testing.AllocsPerRun(100, func() { v.AddBytes([]byte("apache")) }); allocs != 0 {
		t.Errorf("AddBytes of a known term allocates %.0f times", allocs)
	}
}
