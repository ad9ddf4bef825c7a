package textproc

import (
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
	nv, remap, err := v.Prune(PruneSpec{MinDocFreq: 2, MaxDocRatio: 0.8, TotalDocs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if remap[rare] != InvalidTerm {
		t.Error("rare term should be pruned by MinDocFreq")
	}
	if remap[everywhere] != InvalidTerm {
		t.Error("ubiquitous term should be pruned by MaxDocRatio")
	}
	if remap[common] == InvalidTerm {
		t.Error("common term should survive")
	}
	if nv.Size() != 1 {
		t.Errorf("pruned vocab size = %d, want 1", nv.Size())
	}
	if nv.DocFreq(remap[common]) != 5 {
		t.Error("frequencies must carry over to the pruned vocab")
	}
}

func TestVocabPruneRatioRequiresTotal(t *testing.T) {
	v := NewVocab()
	v.Add("x")
	if _, _, err := v.Prune(PruneSpec{MaxDocRatio: 0.5}); err == nil {
		t.Error("expected error when MaxDocRatio set without TotalDocs")
	}
}

func TestVocabTopByCollFreq(t *testing.T) {
	v := NewVocab()
	a := v.Add("a")
	b := v.Add("b")
	c := v.Add("c")
	v.ObserveDoc([]TermID{b, b, b, c, c, a})
	top := v.TopByCollFreq(2)
	if len(top) != 2 || top[0] != b || top[1] != c {
		t.Errorf("TopByCollFreq = %v, want [b c] = [%d %d]", top, b, c)
	}
	all := v.TopByCollFreq(100)
	if len(all) != 3 {
		t.Errorf("TopByCollFreq(100) returned %d ids", len(all))
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
