package core

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(nil); err == nil {
		t.Error("nil obfuscator must error")
	}
}

func TestSessionReusesMaskingTopics(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	s, err := NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(401))

	// Ten different queries on the same interest (topic 0).
	var firstProfile []int
	for i := 0; i < 10; i++ {
		q := f.topicQuery(0, 8+i%5)
		cyc, err := s.Obfuscate(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstProfile = append([]int{}, cyc.MaskingTopics...)
		}
		if len(s.History) != i+1 {
			t.Fatalf("history length %d after %d queries", len(s.History), i+1)
		}
	}
	if len(firstProfile) == 0 {
		t.Skip("first cycle produced no ghosts at these thresholds")
	}
	// Later cycles should predominantly reuse the established profile.
	sticky := map[int]bool{}
	for _, tm := range s.StickyTopics() {
		sticky[tm] = true
	}
	reused, total := 0, 0
	for _, cyc := range s.History[1:] {
		for _, tm := range cyc.MaskingTopics {
			total++
			if sticky[tm] {
				reused++
			}
		}
	}
	if total > 0 && reused*2 < total {
		t.Errorf("only %d/%d masking topics reused from the sticky profile", reused, total)
	}
}

func TestSessionMaxSticky(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	s, _ := NewSession(o)
	s.MaxSticky = 2
	rng := rand.New(rand.NewSource(402))
	for i := 0; i < 5; i++ {
		if _, err := s.Obfuscate(f.topicQuery(i%4, 10), rng); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.StickyTopics()) > 2 {
		t.Errorf("sticky profile %v exceeds MaxSticky", s.StickyTopics())
	}
}

func TestSessionReset(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	s, _ := NewSession(o)
	rng := rand.New(rand.NewSource(403))
	if _, err := s.Obfuscate(f.topicQuery(0, 10), rng); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if len(s.StickyTopics()) != 0 || len(s.History) != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestObfuscateStickyPrefersGivenTopics(t *testing.T) {
	f := getFixture(t)
	o := defaultObfuscator(t, f)
	q := f.topicQuery(0, 12)
	// Find some legal masking topics by running once.
	probe, err := o.Obfuscate(q, rand.New(rand.NewSource(404)))
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.MaskingTopics) < 1 {
		t.Skip("no masking topics generated")
	}
	prefer := probe.MaskingTopics
	hits := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		cyc, err := o.ObfuscateSticky(q, prefer, rand.New(rand.NewSource(int64(500+i))))
		if err != nil {
			t.Fatal(err)
		}
		preferSet := map[int]bool{}
		for _, tm := range prefer {
			preferSet[tm] = true
		}
		for _, tm := range cyc.MaskingTopics {
			if preferSet[tm] {
				hits++
				break
			}
		}
	}
	if hits < trials {
		t.Errorf("preferred topics adopted in only %d/%d trials", hits, trials)
	}
}

func TestOrderCandidates(t *testing.T) {
	k := 6
	inU := make([]bool, k)
	inTm := make([]bool, k)
	inX := make([]bool, k)
	inU[0] = true
	inTm[1] = true
	inX[2] = true
	rng := rand.New(rand.NewSource(1))
	var c candidates
	got := c.order(k, inU, inTm, inX, []int{4, 0, 99, 4}, rng)
	if len(got) != 3 { // topics 3, 4, 5 are legal
		t.Fatalf("got %v", got)
	}
	if got[0] != 4 {
		t.Errorf("preferred legal topic should come first: %v", got)
	}
	seen := map[int]bool{}
	for _, t2 := range got {
		if seen[t2] {
			t.Fatalf("duplicate candidate in %v", got)
		}
		seen[t2] = true
		if t2 == 0 || t2 == 1 || t2 == 2 {
			t.Fatalf("illegal candidate in %v", got)
		}
	}
	// The next step reuses the buffers, and what the first call marked
	// preferred must not linger: topic 4 is an ordinary candidate now.
	got = c.order(k, inU, inTm, inX, []int{5}, rng)
	if len(got) != 3 || got[0] != 5 || !slices.Contains(got[1:], 3) || !slices.Contains(got[1:], 4) {
		t.Errorf("second order over reused buffers = %v, want 5 first, then 3 and 4", got)
	}
}
