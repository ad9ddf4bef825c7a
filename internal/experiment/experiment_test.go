package experiment

import (
	"bytes"
	"strings"
	"testing"
)

// testEnv builds one small laboratory shared by all experiment tests.
var sharedEnv *Env

func getEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	env, err := NewEnv(EnvSpec{
		Seed:       81,
		NumDocs:    400,
		NumTopics:  8,
		Ks:         []int{4, 8, 12},
		NumQueries: 30,
		TrainIters: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedEnv = env
	return env
}

func TestNewEnvShape(t *testing.T) {
	env := getEnv(t)
	if env.Corpus.NumDocs() != 400 {
		t.Errorf("NumDocs = %d", env.Corpus.NumDocs())
	}
	if len(env.Models) != 3 || len(env.Engines) != 3 {
		t.Fatalf("models/engines missing: %d/%d", len(env.Models), len(env.Engines))
	}
	for _, k := range []int{4, 8, 12} {
		if env.Models[k].K != k {
			t.Errorf("model K mismatch for %d", k)
		}
	}
	if got := env.SortedKs(); got[0] != 4 || got[2] != 12 {
		t.Errorf("SortedKs = %v", got)
	}
	if len(env.Queries) != 30 {
		t.Errorf("workload size %d", len(env.Queries))
	}
	if ModelName(8) != "LDA008" {
		t.Errorf("ModelName = %q", ModelName(8))
	}
}

func TestAnalyzedQueriesNonEmpty(t *testing.T) {
	env := getEnv(t)
	qs := env.AnalyzedQueries()
	if len(qs) < 25 {
		t.Fatalf("too many queries lost in analysis: %d of %d", len(qs), len(env.Queries))
	}
	for i, q := range qs {
		if len(q) == 0 {
			t.Fatalf("query %d empty after analysis", i)
		}
	}
}

func TestThresholdSweepFig2Shapes(t *testing.T) {
	env := getEnv(t)
	grid := []float64{0.01, 0.03}
	points, err := ThresholdSweep(env, 0.04, grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*len(grid) {
		t.Fatalf("got %d points, want %d", len(points), 3*len(grid))
	}
	for _, p := range points {
		if p.Eps1 != 0.04 {
			t.Errorf("eps1 = %v, want fixed 0.04", p.Eps1)
		}
		if p.Upsilon < 1 {
			t.Errorf("upsilon = %v < 1", p.Upsilon)
		}
		if p.GenTime <= 0 {
			t.Errorf("gen time not measured")
		}
	}
}

func TestThresholdSweepFig3EqualThresholds(t *testing.T) {
	env := getEnv(t)
	grid := []float64{0.02, 0.04}
	points, err := ThresholdSweep(env, 0, grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Eps1 != p.Eps2 {
			t.Errorf("Fig3 point has eps1 %v != eps2 %v", p.Eps1, p.Eps2)
		}
	}
}

func TestThresholdSweepSkipsInfeasible(t *testing.T) {
	env := getEnv(t)
	// eps2 = 0.05 > eps1 = 0.02 is infeasible and must be skipped.
	points, err := ThresholdSweep(env, 0.02, []float64{0.01, 0.05}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Eps2 > p.Eps1 {
			t.Errorf("infeasible point emitted: %+v", p)
		}
	}
	if len(points) != 3 { // one feasible eps2 x three models
		t.Errorf("got %d points, want 3", len(points))
	}
}

func TestSweepExposureDropsWithGhosts(t *testing.T) {
	// Core Figure 2 shape: with obfuscation on, exposure should sit well
	// below the raw query's boost (which exceeds eps1 by construction of
	// contributing queries).
	env := getEnv(t)
	points, err := ThresholdSweep(env, 0.04, []float64{0.015}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Queries == 0 {
			continue
		}
		if p.Exposure >= p.Eps1 {
			t.Errorf("K=%d exposure %v not below eps1 %v", p.K, p.Exposure, p.Eps1)
		}
		if p.Mask <= p.Exposure {
			t.Errorf("K=%d mask %v does not dominate exposure %v", p.K, p.Mask, p.Exposure)
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	env := getEnv(t)
	points, err := Fig4(env, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * len(DefaultExpansions()) * len(DefaultThresholdGrid())
	if len(points) != want {
		t.Fatalf("got %d PDX points, want %d", len(points), want)
	}
	// Larger expansion should not systematically raise exposure: compare
	// mean exposure at 2x vs 16x for the largest model.
	var lo, hi float64
	var nlo, nhi int
	for _, p := range points {
		if p.K != 12 || p.Queries == 0 {
			continue
		}
		switch p.Expansion {
		case 2:
			lo += p.Exposure
			nlo++
		case 16:
			hi += p.Exposure
			nhi++
		}
	}
	if nlo > 0 && nhi > 0 && hi/float64(nhi) > lo/float64(nlo)*1.2 {
		t.Errorf("16x expansion exposure (%v) well above 2x (%v)", hi/float64(nhi), lo/float64(nlo))
	}
}

func TestFig5RatioBelowOneAtSmallBudget(t *testing.T) {
	// Paper Figure 5: TopPriv beats PDX at equal word budgets. The unit
	// environment's models are far smaller than the paper's K >= 50, and
	// at large budgets heavy embellishment over-dilutes against a 1/K
	// prior (see EXPERIMENTS.md), so the paper-regime assertion is made
	// at υ = 2; the full-scale bench covers the default grid.
	env := getEnv(t)
	points, err := Fig5(env, 6)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, p := range points {
		if p.Queries == 0 || p.Upsilon != 2 || p.PDX == 0 {
			continue
		}
		sum += p.Ratio
		n++
	}
	if n == 0 {
		t.Fatal("no υ=2 ratio points with queries")
	}
	if mean := sum / float64(n); mean >= 1 {
		t.Errorf("mean TopPriv/PDX ratio at υ=2 is %v >= 1: TopPriv should win", mean)
	}
}

func TestFig6Sublinear(t *testing.T) {
	env := getEnv(t)
	points, err := Fig6(env, []float64{0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d scale points", len(points))
	}
	small, large := points[0], points[1]
	if large.IndexBytes <= small.IndexBytes {
		t.Fatal("index must grow with corpus")
	}
	// Paper claim: index grows ~linearly, model sublinearly. With 4x the
	// documents, index should grow much faster than the model.
	idxGrowth := float64(large.IndexBytes) / float64(small.IndexBytes)
	modelGrowth := float64(large.ModelBytes) / float64(small.ModelBytes)
	if modelGrowth >= idxGrowth {
		t.Errorf("model growth %v >= index growth %v; expected sublinear model", modelGrowth, idxGrowth)
	}
	// The same holds for the bytes a client receives.
	if small.FileBytes <= 0 {
		t.Fatalf("model file of %d B", small.FileBytes)
	}
	if fileGrowth := float64(large.FileBytes) / float64(small.FileBytes); fileGrowth >= idxGrowth {
		t.Errorf("model file growth %v >= index growth %v; expected sublinear model", fileGrowth, idxGrowth)
	}
	// Saving should improve (or at least not collapse) with scale.
	if large.Saving < small.Saving-0.05 {
		t.Errorf("saving shrank with scale: %v -> %v", small.Saving, large.Saving)
	}
}

func TestTable2ColumnsLookRight(t *testing.T) {
	env := getEnv(t)
	cols, err := Table2(env, []string{"finance", "technology"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 { // two themes + generic
		t.Fatalf("got %d columns", len(cols))
	}
	for _, c := range cols {
		if len(c.Words) != 10 {
			t.Errorf("column %q has %d words", c.Header, len(c.Words))
		}
	}
	if _, err := Table2(env, []string{"no-such-theme"}, 10); err == nil {
		t.Error("unknown theme must error")
	}
}

func TestTable3OneColumnPerModel(t *testing.T) {
	env := getEnv(t)
	cols, err := Table3(env, "medicine", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("got %d columns, want one per model", len(cols))
	}
}

func TestTable4TinyModel(t *testing.T) {
	env := getEnv(t)
	cols, err := Table4(env, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) < 2 {
		t.Fatalf("tiny model should still have >= 2 topics, got %d", len(cols))
	}
}

func TestPIRTable(t *testing.T) {
	env := getEnv(t)
	r := PIRTable(env)
	if r.MaxListLen <= int(r.MeanListLen) {
		t.Errorf("max list %d should exceed mean %v (skewed postings)", r.MaxListLen, r.MeanListLen)
	}
	if r.Blowup <= 1 {
		t.Errorf("PIR blowup %v should exceed 1", r.Blowup)
	}
}

func TestAttackTableRows(t *testing.T) {
	env := getEnv(t)
	rows, err := AttackTable(env, 0.04, 0.015, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	byKey := map[string]AttackRow{}
	for _, r := range rows {
		byKey[r.Attack+"/"+r.Scheme] = r
	}
	tmn := byKey["coherence/trackmenot"]
	tp := byKey["coherence/toppriv"]
	if tmn.Value <= tmn.Baseline {
		t.Errorf("coherence attack should beat random on TrackMeNot: %v vs %v", tmn.Value, tmn.Baseline)
	}
	if tp.Value > tp.Baseline+0.35 {
		t.Errorf("coherence attack should be near-random on TopPriv: %v vs %v", tp.Value, tp.Baseline)
	}
	// The learned distinguisher should do well against plain sampling and
	// collapse against mimic sampling.
	plain := byKey["learned-distinguisher/toppriv"]
	mimic := byKey["learned-distinguisher/toppriv+mimic"]
	if mimic.Value >= plain.Value {
		t.Errorf("mimic sampling should blunt the distinguisher: %v vs %v", mimic.Value, plain.Value)
	}
}

func TestPrinters(t *testing.T) {
	env := getEnv(t)
	points, err := ThresholdSweep(env, 0.04, []float64{0.02}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintPoints(&buf, "Figure 2", points)
	if !strings.Contains(buf.String(), "LDA004") {
		t.Error("PrintPoints missing model name")
	}
	buf.Reset()
	if err := WritePointsCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(points)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(points)+1)
	}
	buf.Reset()
	cols, _ := Table2(env, nil, 5)
	PrintTopicColumns(&buf, "Table II", cols)
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("PrintTopicColumns missing title")
	}
	buf.Reset()
	PrintPIR(&buf, PIRTable(env))
	if !strings.Contains(buf.String(), "blowup") {
		t.Error("PrintPIR missing blowup")
	}
}

func TestGroupByK(t *testing.T) {
	points := []Point{
		{K: 8, Eps2: 0.03}, {K: 8, Eps2: 0.01}, {K: 4, Eps2: 0.02},
	}
	groups := GroupByK(points)
	if len(groups) != 2 {
		t.Fatalf("got %d groups", len(groups))
	}
	if groups[8][0].Eps2 != 0.01 {
		t.Error("series not sorted by eps2")
	}
}
