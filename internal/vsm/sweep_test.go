package vsm

import (
	"math"
	"math/rand"
	"testing"

	"toppriv/internal/corpus"
)

// nudge moves x by n units in the last place (down for negative n).
func nudge(x float64, n int) float64 {
	for ; n > 0; n-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; n < 0; n++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestSweepGateNeverRejectsAnAdmissibleDocument is the property behind
// sweep's shortcut: a document turned away by the multiply-and-compare
// (next) is one the exact path — finalizeScore, then pushTopK's
// worseThan against the heap root — would have turned away too. Each
// trial fills an accumulator by hand, sweeps it, and compares the heap
// and the counters with the exact path run over the same documents in
// ascending order.
//
// The accumulators are adversarial where the shortcut is thinnest: raw
// scores sitting on root·norm·qnorm give or take a few units in the
// last place, so final scores tie with the root or miss it by one
// rounding; runs of documents with one norm and one raw score (equal
// finals, larger IDs); documents without a norm; heaps that never fill
// (k above the document count), k = 1; and reached lists in shuffled
// order and heaps seeded — as by an earlier part of the collection —
// with larger document IDs than anything swept, so an equal final with
// the smaller ID, which must be admitted, meets the gate as well, from
// the first document on. Some parts report their documents under other
// IDs than the local ones, some hold tombstones.
func TestSweepGateNeverRejectsAnAdmissibleDocument(t *testing.T) {
	const nDocs = 300
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 4000; trial++ {
		e := &Engine{scoring: Scoring(trial % 2)}
		qnorm := 1.0
		var part Part
		if e.scoring == Cosine {
			qnorm = 0.2 + 3*rng.Float64()
			part.Norms = make([]float64, nDocs-7) // the last few documents have none
			for d := range part.Norms {
				if part.Norms[d] = 0.5 + 9*rng.Float64(); rng.Intn(25) == 0 {
					part.Norms[d] = 0
				}
			}
		}
		if trial%5 == 4 {
			part.IDs = make([]corpus.DocID, nDocs)
			for d := range part.IDs {
				part.IDs[d] = corpus.DocID(2*d + 17)
			}
		}
		if trial%13 == 12 {
			part.Dead = make([]bool, nDocs)
			for d := range part.Dead {
				part.Dead[d] = rng.Intn(6) == 0
			}
		}
		reported := func(d int) corpus.DocID {
			if part.IDs != nil {
				return part.IDs[d]
			}
			return corpus.DocID(d)
		}
		if trial%11 == 10 {
			e.prior = make([]float64, nDocs)
			for d := range e.prior {
				e.prior[d] = 0.6 + 0.4*rng.Float64()
			}
		}
		var keep func(corpus.DocID) bool
		if trial%7 == 6 {
			dead := rng.Intn(nDocs)
			keep = func(d corpus.DocID) bool { return int(d)%5 != dead%5 }
		}
		k := []int{1, 2, 10, 50, nDocs + 20}[rng.Intn(5)]
		den := func(d int) float64 {
			if d < len(part.Norms) && part.Norms[d] > 0 {
				return part.Norms[d] * qnorm
			}
			return 1
		}

		qs := &queryState{}
		qs.ensureDoc(nDocs - 1)
		pivot := 0.05 + rng.Float64() // the final score the trial crowds around
		for d := 0; d < nDocs; d++ {
			switch rng.Intn(10) {
			case 0, 1: // not reached by the scan
				continue
			case 2, 3, 4, 5:
				qs.score[d] = nudge(pivot*den(d), rng.Intn(9)-4)
			case 6:
				if d > 0 && qs.score[d-1] != 0 && d < len(part.Norms) {
					part.Norms[d] = part.Norms[d-1]
					qs.score[d] = qs.score[d-1]
					break
				}
				fallthrough
			default:
				// Mostly below the crowd, so the heap's root sits in it.
				qs.score[d] = (0.01 + 1.05*rng.Float64()*pivot) * den(d)
			}
			qs.reached = append(qs.reached, corpus.DocID(d))
		}
		if trial%2 == 1 {
			// First-contribution order is whatever the term lists made it.
			rng.Shuffle(len(qs.reached), func(i, j int) { qs.reached[i], qs.reached[j] = qs.reached[j], qs.reached[i] })
		}
		if trial%3 == 2 {
			// A heap already holding k results with larger document IDs,
			// some level with the pivot.
			for i := 0; i < k && i < 40; i++ {
				r := Result{Doc: corpus.DocID(nDocs + 1000 - i), Score: pivot}
				if rng.Intn(2) == 0 {
					r.Score = nudge(pivot, rng.Intn(5)-2)
				}
				pushTopK(&qs.heap, k, r)
			}
		}

		exact := append(resultHeap(nil), qs.heap...)
		var want ExecStats
		for d := 0; d < nDocs; d++ {
			if qs.score[d] == 0 {
				continue
			}
			if (part.Dead != nil && part.Dead[d]) || (keep != nil && !keep(reported(d))) {
				want.DocsFiltered++
				continue
			}
			want.DocsScored++
			pushTopK(&exact, k, Result{Doc: reported(d), Score: e.finalizeScore(qs.score[d], corpus.DocID(d), part.Norms, qnorm)})
		}

		m := batchMember{qs: qs, qnorm: qnorm, k: k, keep: keep}
		qs.unswept = true
		e.sweep(&m, &part)
		if err := sameHits(drainTopK(&qs.heap), drainTopK(&exact)); err != nil {
			t.Fatalf("trial %d (%v, k=%d, keep=%v, prior=%v, ids=%v, dead=%v): %v",
				trial, e.scoring, k, keep != nil, e.prior != nil, part.IDs != nil, part.Dead != nil, err)
		}
		if m.stats != want {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, m.stats, want)
		}
		if qs.unswept {
			t.Fatalf("trial %d: state still flagged unswept", trial)
		}
		if len(qs.reached) != 0 {
			t.Fatalf("trial %d: %d documents left on the reached list", trial, len(qs.reached))
		}
		for d := range qs.score {
			if qs.score[d] != 0 {
				t.Fatalf("trial %d: document %d left in the accumulator (score %v)", trial, d, qs.score[d])
			}
		}
	}
}
