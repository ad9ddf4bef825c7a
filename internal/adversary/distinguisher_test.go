package adversary

import (
	"math/rand"
	"testing"

	"toppriv/internal/core"
)

func TestDistinguisherUntrainedIsRandom(t *testing.T) {
	f := getFixture(t)
	a := &Distinguisher{Eng: f.eng}
	cycle := [][]string{f.topicQuery(0, 5), f.topicQuery(1, 5), f.topicQuery(2, 5)}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		seen[a.GuessUser(cycle, rng)] = true
	}
	if len(seen) < 2 {
		t.Error("untrained distinguisher should guess randomly")
	}
}

func TestDistinguisherFeatures(t *testing.T) {
	f := getFixture(t)
	a := &Distinguisher{Eng: f.eng}
	// A topic-head query is maximally coherent with shallow ranks.
	coherent := a.features(f.topicQuery(0, 8))
	if coherent[0] < 0.5 {
		t.Errorf("head query coherence %v", coherent[0])
	}
	// An OOV-heavy query has high f2.
	oov := a.features([]string{"zzz-1", "qqq-2", "m-1"})
	if oov[2] < 0.9 {
		t.Errorf("OOV fraction %v, want ~1", oov[2])
	}
	// Empty query is all zeros, no panic.
	if a.features(nil) != [nFeatures]float64{} {
		t.Error("empty query features should be zero")
	}
}

func TestDistinguisherMeasuredAgainstTopPriv(t *testing.T) {
	// The honest measurement: train on obfuscator-generated ghosts and
	// probe queries, attack fresh cycles. We don't assert the attack
	// fails — we assert the measurement machinery works and record the
	// rate. (The attack beats random because workload queries carry
	// deeper-ranked terms than Φ-head ghosts, a known cost of topical
	// ghost generation.)
	f := getFixture(t)
	rng := rand.New(rand.NewSource(2))
	var probes [][]string
	for topic := 0; topic < 8; topic++ {
		probes = append(probes, f.topicQuery(topic, 10))
	}
	a := &Distinguisher{Eng: f.eng}
	if err := a.TrainFromObfuscator(f.obf, probes, rng); err != nil {
		t.Fatal(err)
	}
	trials := topPrivTrials(t, f, 3)
	rate := EvalQueryGuess(a, trials, rand.New(rand.NewSource(4)))
	baseline := RandomGuessBaseline(trials)
	if rate < 0 || rate > 1 {
		t.Fatalf("rate %v out of range", rate)
	}
	t.Logf("distinguisher: %.0f%% vs random %.0f%% over %d trials",
		rate*100, baseline*100, len(trials))
}

func TestDistinguisherSeparatesObviousClasses(t *testing.T) {
	// Sanity: trained on clearly separable classes, it must classify a
	// held-out pair correctly.
	f := getFixture(t)
	a := &Distinguisher{Eng: f.eng}
	var ghosts, genuine [][]string
	for topic := 0; topic < 8; topic++ {
		ghosts = append(ghosts, f.topicQuery(topic, 10)) // coherent heads
		genuine = append(genuine, []string{"x-1", "y-2", "z-3"})
	}
	a.Train(ghosts, genuine)
	cycle := [][]string{
		f.topicQuery(3, 10),        // ghost-like
		{"m-1", "ah-64", "sq-333"}, // genuine-like (OOV designators)
	}
	if got := a.GuessUser(cycle, rand.New(rand.NewSource(5))); got != 1 {
		t.Errorf("distinguisher picked %d, want the OOV-heavy query", got)
	}
}

func TestMimicProfileBluntsDistinguisher(t *testing.T) {
	// The countermeasure measurement: with Params.MimicProfile the ghost
	// words match the genuine query's rank-depth profile, so the learned
	// distinguisher's advantage should shrink substantially.
	f := getFixture(t)
	var probes [][]string
	for topic := 0; topic < 8; topic++ {
		probes = append(probes, f.topicQuery(topic, 10))
	}

	measure := func(params core.Params, seed int64) float64 {
		obf, err := core.NewObfuscator(f.eng, params)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		a := &Distinguisher{Eng: f.eng}
		if err := a.TrainFromObfuscator(obf, probes, rng); err != nil {
			t.Fatal(err)
		}
		var trials []Trial
		for round := 0; round < 3; round++ {
			for topic := 0; topic < 8; topic++ {
				q := f.topicQuery(topic, 9+round)
				cyc, err := obf.Obfuscate(q, rng)
				if err != nil {
					t.Fatal(err)
				}
				if cyc.Len() < 2 || len(cyc.Intention) == 0 {
					continue
				}
				trials = append(trials, Trial{Cycle: cyc.Queries, UserIndex: cyc.UserIndex})
			}
		}
		if len(trials) == 0 {
			t.Fatal("no trials")
		}
		return EvalQueryGuess(a, trials, rand.New(rand.NewSource(seed+1)))
	}

	base := core.Params{Eps1: 0.04, Eps2: 0.015}
	mimic := base
	mimic.MimicProfile = true
	ratePlain := measure(base, 700)
	rateMimic := measure(mimic, 700)
	t.Logf("distinguisher success: plain sampling %.0f%%, mimic sampling %.0f%%",
		ratePlain*100, rateMimic*100)
	if rateMimic >= ratePlain {
		t.Errorf("mimic sampling did not reduce distinguisher success: %v vs %v",
			rateMimic, ratePlain)
	}
}

func TestMimicCyclesStillSuppress(t *testing.T) {
	// The countermeasure must not break the privacy guarantee itself.
	f := getFixture(t)
	obf, err := core.NewObfuscator(f.eng, core.Params{Eps1: 0.04, Eps2: 0.015, MimicProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(701))
	satisfied, total := 0, 0
	for topic := 0; topic < 8; topic++ {
		cyc, err := obf.Obfuscate(f.topicQuery(topic, 12), rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(cyc.Intention) == 0 {
			continue
		}
		total++
		if cyc.Satisfied {
			satisfied++
		}
	}
	if total == 0 {
		t.Fatal("no intentions")
	}
	if satisfied*2 < total {
		t.Errorf("mimic sampling satisfied (ε1,ε2) on only %d/%d queries", satisfied, total)
	}
}
