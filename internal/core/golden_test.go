package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/lda"
	"toppriv/internal/textproc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_cycles.txt from this build's cycles")

const (
	goldenPath    = "testdata/golden_cycles.txt"
	goldenQueries = 70 // per configuration
)

// cycleDigest fingerprints everything a cycle's consumer can observe:
// the shuffled queries, where the genuine one sits, the final boost bit
// for bit, and which topics masked or were backtracked past.
func cycleDigest(c *Cycle) string {
	var b strings.Builder
	for _, q := range c.Queries {
		b.WriteString(strings.Join(q, " "))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "user=%d\n", c.UserIndex)
	for _, v := range c.Boost {
		fmt.Fprintf(&b, "%016x ", math.Float64bits(v))
	}
	fmt.Fprintf(&b, "\nmask=%v rejected=%v\n", c.MaskingTopics, c.RejectedTopics)
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// goldenCycles generates the digest lines, "<config> <query#> <digest>",
// for every configuration the sampler and the fold-in kernel serve.
//
// The model has 16 topics, so cycles run to about six queries, and 1025
// words: sixteen sampler blocks and a seventeenth holding one word.
func goldenCycles(t *testing.T) []string {
	c, gt, err := corpus.Synthesize(corpus.GenSpec{Seed: 41, NumDocs: 600, NumTopics: 16, DocLenMin: 60, DocLenMax: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := lda.Train(c, lda.TrainSpec{NumTopics: 16, Iterations: 60, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	eng := engineOver(t, m)
	an := textproc.NewAnalyzer()
	qs, err := corpus.Workload(gt, corpus.WorkloadSpec{Seed: 5, NumQueries: goldenQueries, MinTerms: 2, MaxTerms: 12})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]string, 0, len(qs))
	for _, q := range qs {
		if terms := an.Analyze(q.Text()); len(terms) > 0 {
			queries = append(queries, terms)
		}
	}
	if len(queries) != goldenQueries {
		t.Fatalf("%d of %d workload queries survive analysis; pick another seed", len(queries), goldenQueries)
	}
	configs := []struct {
		name   string
		params Params
		sticky bool
	}{
		{"default", Params{Eps1: 0.05, Eps2: 0.01}, false},
		{"mimic", Params{Eps1: 0.05, Eps2: 0.01, MimicProfile: true}, false},
		{"uniform", Params{Eps1: 0.05, Eps2: 0.01, UniformWords: true}, false},
		{"sticky", Params{Eps1: 0.05, Eps2: 0.01}, true},
	}
	var lines []string
	for ci, cfg := range configs {
		obf, err := NewObfuscator(eng, cfg.params)
		if err != nil {
			t.Fatal(err)
		}
		obfuscate := obf.Obfuscate
		if cfg.sticky {
			s, err := NewSession(obf)
			if err != nil {
				t.Fatal(err)
			}
			obfuscate = s.Obfuscate
		}
		// One RNG per configuration, carried across its queries, so a
		// single misplaced draw shifts every later cycle too.
		rng := rand.New(rand.NewSource(int64(100 + ci)))
		for qi, q := range queries {
			cyc, err := obfuscate(q, rng)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s %d %s", cfg.name, qi, cycleDigest(cyc)))
		}
	}
	return lines
}

// TestGoldenCycles holds the obfuscator to cycles recorded at the commit
// before ghost sampling and fold-in inference were rewritten: the same
// seed must still yield the same queries, positions, boosts and topic
// sets. Regenerate with -update only for a change that is meant to alter
// cycles.
func TestGoldenCycles(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses multiply-adds on some other architectures,
		// which changes float results for old and new code alike.
		t.Skipf("golden digests were recorded on amd64, not %s", runtime.GOARCH)
	}
	got := goldenCycles(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cycle digests to %s", len(got), goldenPath)
		return
	}
	file, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var want []string
	for sc := bufio.NewScanner(file); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden cycles on file, generated %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("first differing cycle: got %q, want %q", got[i], want[i])
		}
	}
}
