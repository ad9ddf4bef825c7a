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

var (
	updateGolden    = flag.Bool("update", false, "rewrite testdata/golden_cycles.txt from this build's cycles, if their structure matches testdata/golden_structure.txt")
	updateStructure = flag.Bool("update-structure", false, "rewrite testdata/golden_structure.txt from this build's cycles")
)

const (
	goldenPath    = "testdata/golden_cycles.txt"
	structurePath = "testdata/golden_structure.txt"
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

// structureDigest fingerprints what a cycle is made of, leaving out
// every float: the shuffled queries, where the genuine one sits, the
// intention, masking and rejected topics, and whether ε2 was reached. A
// change that moves only the low bits of the boosts keeps it.
func structureDigest(c *Cycle) string {
	var b strings.Builder
	for _, q := range c.Queries {
		b.WriteString(strings.Join(q, " "))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "user=%d intention=%v mask=%v rejected=%v satisfied=%v\n",
		c.UserIndex, c.Intention, c.MaskingTopics, c.RejectedTopics, c.Satisfied)
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// goldenCycles generates two digest lines per cycle, "<config>
// <query#> <digest>": one of cycleDigest, one of structureDigest, for
// every configuration the sampler and the fold-in kernel serve.
//
// The model has 16 topics, so cycles run to about six queries, and 1025
// words: sixteen sampler blocks and a seventeenth holding one word.
func goldenCycles(t *testing.T) (cycles, structure []string) {
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
			cycles = append(cycles, fmt.Sprintf("%s %d %s", cfg.name, qi, cycleDigest(cyc)))
			structure = append(structure, fmt.Sprintf("%s %d %s", cfg.name, qi, structureDigest(cyc)))
		}
	}
	return cycles, structure
}

// TestGoldenCycles holds the obfuscator to recorded cycles: the same
// seed must still yield the same queries, positions, boosts and topic
// sets. golden_cycles.txt was last recorded when Φ went to float32,
// which moved low bits of the boosts and nothing else: the structure
// digests, recorded before that change, held. Regenerate it with -update
// only for a change that is meant to alter cycles; -update refuses while
// a structure digest differs, and -update-structure rewrites those for
// a change meant to alter what cycles are made of.
func TestGoldenCycles(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses multiply-adds on some other architectures,
		// which changes float results for old and new code alike.
		t.Skipf("golden digests were recorded on amd64, not %s", runtime.GOARCH)
	}
	cycles, structure := goldenCycles(t)
	if *updateStructure {
		writeGolden(t, structurePath, structure)
	} else {
		compareGolden(t, structurePath, structure)
	}
	if *updateGolden {
		if !t.Failed() {
			writeGolden(t, goldenPath, cycles)
		}
		return
	}
	compareGolden(t, goldenPath, cycles)
}

func writeGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d cycle digests to %s", len(lines), path)
}

// compareGolden reports the first line that differs from path's.
func compareGolden(t *testing.T, path string, got []string) {
	t.Helper()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var want []string
	for sc := bufio.NewScanner(file); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d golden cycles on file, generated %d", path, len(want), len(got))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: first differing cycle: got %q, want %q", path, got[i], want[i])
			return
		}
	}
}
