package corpus

import (
	"testing"

	"toppriv/internal/textproc"
)

// TestAnalyzeIntoAllocatesOnlyTheBag: a document whose terms the
// dictionary already holds costs its analysis and its bag — the live
// store's steady-state ingest keeps no per-document bookkeeping in the
// dictionary (it counts its own live document frequencies).
func TestAnalyzeIntoAllocatesOnlyTheBag(t *testing.T) {
	an := textproc.NewAnalyzer()
	doc := Document{Text: "Submarine reactors need cooling; the reactor cooling loop runs pumps, valves and heat exchangers aboard every submarine in the fleet."}
	vocab := textproc.NewVocab()
	bag := AnalyzeInto(doc, an, vocab)
	if len(bag) < 10 || vocab.Size() >= len(bag) {
		t.Fatalf("fixture: %d terms, %d distinct; want a long bag with repeats", len(bag), vocab.Size())
	}
	analyze := testing.AllocsPerRun(50, func() { an.Analyze(doc.Text) })
	into := testing.AllocsPerRun(50, func() { AnalyzeInto(doc, an, vocab) })
	if into > analyze+1 {
		t.Errorf("AnalyzeInto allocates %.0f times, Analyze %.0f: want the bag alone on top", into, analyze)
	}
}
