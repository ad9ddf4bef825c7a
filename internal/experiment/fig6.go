package experiment

import (
	"bytes"
	"fmt"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

// ScalePoint is one Figure 6 measurement: at a given corpus scale, the
// serialized inverted-index size versus the client-side LDA model size.
type ScalePoint struct {
	NumDocs    int
	VocabSize  int
	IndexBytes int64
	// ModelBytes is the heap the client holds for the model
	// (lda.Model.ClientSizeBytes); FileBytes is what lda.Model.Save
	// writes, the bytes a client receives.
	ModelBytes int64
	FileBytes  int64
	// Saving is the naive-download comparison of §V-D, against
	// ModelBytes.
	Saving float64
}

// Fig6 reproduces Figure 6: grow the corpus and plot LDA-model size
// against inverted-index size. The index grows roughly linearly with
// the document count while the model's dominant structure (Φ, sized by
// the vocabulary) plateaus, so the curve is sublinear.
//
// Model size is independent of fit quality, so training runs only a few
// Gibbs sweeps per scale.
func Fig6(env *Env, fractions []float64) ([]ScalePoint, error) {
	if len(fractions) == 0 {
		// Sweep past the environment scale so the index's linear growth
		// visibly overtakes the model's plateau (the paper's crossover).
		fractions = []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	}
	spec := env.Spec
	k := spec.Ks[len(spec.Ks)/2] // a mid-grid model, like the paper's LDA200
	an := textproc.NewAnalyzer()
	var out []ScalePoint
	for _, f := range fractions {
		nd := int(f * float64(spec.NumDocs))
		if nd < 10 {
			nd = 10
		}
		c, _, err := corpus.Synthesize(corpus.GenSpec{
			Seed:      spec.Seed,
			NumDocs:   nd,
			NumTopics: spec.NumTopics,
		}, an)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 scale %v: %w", f, err)
		}
		idx, err := index.Build(c)
		if err != nil {
			return nil, err
		}
		m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: k, Iterations: 5, Seed: spec.Seed})
		if err != nil {
			return nil, err
		}
		var file bytes.Buffer
		if err := m.Save(&file); err != nil {
			return nil, err
		}
		pt := ScalePoint{
			NumDocs:    nd,
			VocabSize:  c.VocabSize(),
			IndexBytes: idx.SizeBytes(),
			ModelBytes: m.ClientSizeBytes(),
			FileBytes:  int64(file.Len()),
		}
		if pt.IndexBytes > 0 {
			pt.Saving = 1 - float64(pt.ModelBytes)/float64(pt.IndexBytes)
		}
		out = append(out, pt)
	}
	return out, nil
}
