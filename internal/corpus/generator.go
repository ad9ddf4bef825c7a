package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"toppriv/internal/textproc"
)

// GenSpec configures the synthetic corpus generator. The defaults
// produce a corpus that stands in for the paper's WSJ collection at
// laptop scale: multi-topic, Zipfian within-topic word distributions,
// sparse per-document topic mixtures, and a generic background shared by
// every document (see PAPER.md, "What this repository reproduces").
type GenSpec struct {
	// Seed makes generation deterministic. Same spec + seed => same corpus.
	Seed int64
	// NumDocs is δ, the number of documents. Default 2000.
	NumDocs int
	// NumTopics is G, the ground-truth topic count. The first topics use
	// the curated theme vocabularies; any excess beyond the catalogue is
	// synthesized. Default 32.
	NumTopics int
	// WordsPerTopic is the vocabulary size of each topic (seed words plus
	// synthesized fill). Default 60.
	WordsPerTopic int
	// SharedWords is the size of the generic background vocabulary.
	// Default 80.
	SharedWords int
	// DocLenMin and DocLenMax bound the raw token count per document.
	// Defaults 80 and 160.
	DocLenMin, DocLenMax int
	// TopicAlpha is the symmetric Dirichlet concentration for document
	// topic mixtures; small values give sparse, clearly-themed documents
	// like news articles. Default 0.08.
	TopicAlpha float64
	// BackgroundFrac is the per-token probability of drawing from the
	// generic background instead of a topical distribution. Default 0.25.
	BackgroundFrac float64
	// ZipfS is the Zipf exponent for within-topic word ranks. Default 1.1.
	ZipfS float64
}

// withDefaults fills zero fields with the documented defaults.
func (s GenSpec) withDefaults() GenSpec {
	if s.NumDocs == 0 {
		s.NumDocs = 2000
	}
	if s.NumTopics == 0 {
		s.NumTopics = 32
	}
	if s.WordsPerTopic == 0 {
		s.WordsPerTopic = 60
	}
	if s.SharedWords == 0 {
		s.SharedWords = 80
	}
	if s.DocLenMin == 0 {
		s.DocLenMin = 80
	}
	if s.DocLenMax == 0 {
		s.DocLenMax = 160
	}
	if s.TopicAlpha == 0 {
		s.TopicAlpha = 0.08
	}
	if s.BackgroundFrac == 0 {
		s.BackgroundFrac = 0.25
	}
	if s.ZipfS == 0 {
		s.ZipfS = 1.1
	}
	return s
}

func (s GenSpec) validate() error {
	if s.NumDocs < 1 {
		return fmt.Errorf("corpus: NumDocs = %d, need >= 1", s.NumDocs)
	}
	if s.NumTopics < 2 {
		return fmt.Errorf("corpus: NumTopics = %d, need >= 2", s.NumTopics)
	}
	if s.DocLenMin > s.DocLenMax {
		return fmt.Errorf("corpus: DocLenMin %d > DocLenMax %d", s.DocLenMin, s.DocLenMax)
	}
	if s.BackgroundFrac < 0 || s.BackgroundFrac >= 1 {
		return fmt.Errorf("corpus: BackgroundFrac = %v, need [0,1)", s.BackgroundFrac)
	}
	return nil
}

// GroundTruth records the generative model behind a synthetic corpus.
// Experiments use it to pose topically-focused queries and to sanity-
// check the LDA fit; the privacy mechanism itself never reads it.
type GroundTruth struct {
	// TopicNames[g] names ground-truth topic g ("finance", …; synthetic
	// topics are named "synthNN").
	TopicNames []string
	// TopicWords[g] lists topic g's raw vocabulary in rank order (most
	// probable first).
	TopicWords [][]string
	// BackgroundWords lists the generic vocabulary in rank order.
	BackgroundWords []string
	// Spec echoes the generator configuration.
	Spec GenSpec
}

// Synthesize generates a corpus from spec and analyzes it with an.
// A nil analyzer gets the repository default.
func Synthesize(spec GenSpec, an *textproc.Analyzer) (*Corpus, *GroundTruth, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	if an == nil {
		an = textproc.NewAnalyzer()
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	gt := buildGroundTruth(spec, rng)

	topicWeights := zipfWeights(spec.WordsPerTopic, spec.ZipfS)
	bgWeights := zipfWeights(len(gt.BackgroundWords), spec.ZipfS)

	docs := make([]Document, spec.NumDocs)
	for d := range docs {
		theta := randDirichlet(rng, spec.TopicAlpha, spec.NumTopics)
		length := spec.DocLenMin
		if spec.DocLenMax > spec.DocLenMin {
			length += rng.Intn(spec.DocLenMax - spec.DocLenMin + 1)
		}
		words := make([]string, 0, length)
		for i := 0; i < length; i++ {
			if rng.Float64() < spec.BackgroundFrac {
				words = append(words, gt.BackgroundWords[sampleCategorical(rng, bgWeights)])
				continue
			}
			z := sampleCategorical(rng, theta)
			w := gt.TopicWords[z][sampleCategorical(rng, topicWeights)]
			words = append(words, w)
		}
		dominant := 0
		for g := range theta {
			if theta[g] > theta[dominant] {
				dominant = g
			}
		}
		docs[d] = Document{
			Title:      fmt.Sprintf("%s article %d", gt.TopicNames[dominant], d),
			Text:       strings.Join(words, " "),
			TrueTopics: theta,
		}
	}

	c, err := Build(docs, an, textproc.PruneSpec{MinDocFreq: 2})
	if err != nil {
		return nil, nil, err
	}
	c.GroundTruthTopics = spec.NumTopics
	return c, gt, nil
}

// buildGroundTruth assembles the per-topic vocabularies: curated theme
// seeds first, synthesized fill after, with cross-topic duplicates
// avoided so each topic has a distinctive head.
func buildGroundTruth(spec GenSpec, rng *rand.Rand) *GroundTruth {
	themes := Themes()
	synth := newWordSynth(rng)
	used := make(map[string]struct{})
	for _, th := range themes {
		for _, w := range th.Words {
			used[w] = struct{}{}
		}
	}
	for _, w := range genericWords {
		used[w] = struct{}{}
	}

	gt := &GroundTruth{Spec: spec}
	for g := 0; g < spec.NumTopics; g++ {
		var name string
		var words []string
		if g < len(themes) {
			name = themes[g].Name
			words = append(words, themes[g].Words...)
		} else {
			name = fmt.Sprintf("synth%02d", g)
		}
		if len(words) > spec.WordsPerTopic {
			words = words[:spec.WordsPerTopic]
		}
		words = append(words, synth.batch(spec.WordsPerTopic-len(words), used)...)
		gt.TopicNames = append(gt.TopicNames, name)
		gt.TopicWords = append(gt.TopicWords, words)
	}
	bg := append([]string{}, genericWords...)
	if len(bg) > spec.SharedWords {
		bg = bg[:spec.SharedWords]
	}
	bg = append(bg, synth.batch(spec.SharedWords-len(bg), used)...)
	gt.BackgroundWords = bg
	return gt
}

// TopicByName returns the index of the named ground-truth topic, or -1.
func (gt *GroundTruth) TopicByName(name string) int {
	for i, n := range gt.TopicNames {
		if n == name {
			return i
		}
	}
	return -1
}
