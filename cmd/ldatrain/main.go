// Command ldatrain fits an LDA topic model to a corpus (JSON from
// corpusgen) with collapsed Gibbs sampling and saves it for the client
// tools — the offline step a trusted party would run once per corpus
// (paper §IV, "a trusted party could derive and certify the topic
// model").
//
// Usage:
//
//	ldatrain -corpus corpus.json -out model.tplm -k 24 -iters 150
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ldatrain: ")

	var (
		corpusPath = flag.String("corpus", "corpus.json", "corpus JSON from corpusgen")
		out        = flag.String("out", "model.tplm", "output model path")
		k          = flag.Int("k", 24, "number of topics")
		iters      = flag.Int("iters", 150, "Gibbs sweeps")
		seed       = flag.Int64("seed", 1, "sampling seed")
		topWords   = flag.Int("top", 10, "print this many top words per topic (0 = none)")
	)
	flag.Parse()

	f, err := os.Open(*corpusPath)
	if err != nil {
		log.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	c, err := corpus.ReadJSON(f, an, textproc.PruneSpec{MinDocFreq: 2})
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("corpus: %d docs, %d terms", c.NumDocs(), c.VocabSize())

	m, trace, err := lda.Train(c, lda.TrainSpec{
		NumTopics:  *k,
		Iterations: *iters,
		Seed:       *seed,
		LogEvery:   *iters / 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := len(trace.LogLikelihood); n > 0 {
		log.Printf("log-likelihood: %.4f -> %.4f over %d sweeps",
			trace.LogLikelihood[0], trace.LogLikelihood[n-1], *iters)
	}

	var file bytes.Buffer
	if err := m.Save(&file); err != nil {
		log.Fatal(err)
	}
	if err := frame.WriteFileAtomic(filepath.Dir(*out), filepath.Base(*out), file.Bytes()); err != nil {
		log.Fatal(err)
	}
	log.Printf("model: K=%d, %.1f KB, saved to %s", m.K, float64(file.Len())/1024, *out)
	explicit := m.PhiExplicit()
	log.Printf("Phi: %d of %d entries explicit (%.1f %%), the rest their topic's floor",
		explicit, m.K*m.V, 100*float64(explicit)/float64(m.K*m.V))

	if *topWords > 0 {
		for t := 0; t < m.K; t++ {
			fmt.Printf("topic %2d:", t)
			for _, tw := range m.TopWords(t, *topWords) {
				fmt.Printf(" %s", tw.Term)
			}
			fmt.Println()
		}
	}
}
