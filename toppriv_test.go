package toppriv

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
)

var sharedSvc *Service

func getService(t *testing.T) *Service {
	t.Helper()
	if sharedSvc != nil {
		return sharedSvc
	}
	svc, err := NewService(ServiceSpec{
		Seed: 91,
		Corpus: CorpusSpec{
			NumDocs:   400,
			NumTopics: 8,
			DocLenMin: 60,
			DocLenMax: 100,
		},
		TrainIters: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedSvc = svc
	return svc
}

func (s *Service) topicQueryText(topic, n int) string {
	var out []string
	for _, w := range s.GroundTruth.TopicWords[topic] {
		if _, ok := s.analyzer.AnalyzeTerm(w); ok {
			out = append(out, w)
			if len(out) == n {
				break
			}
		}
	}
	return strings.Join(out, " ")
}

func TestNewServiceSynthetic(t *testing.T) {
	svc := getService(t)
	if svc.Corpus.NumDocs() != 400 {
		t.Errorf("NumDocs = %d", svc.Corpus.NumDocs())
	}
	if svc.GroundTruth == nil {
		t.Fatal("synthetic service must expose ground truth")
	}
	if svc.Model.K != 8 {
		t.Errorf("model K = %d, want ground-truth topic count", svc.Model.K)
	}
}

func TestNewServiceIngested(t *testing.T) {
	docs := []Document{
		{Text: "stock market trading stock shares market"},
		{Text: "stock shares investors market trading"},
		{Text: "helicopter army weapons helicopter missile"},
		{Text: "army missile weapons helicopter defense"},
	}
	svc, err := NewService(ServiceSpec{Seed: 2, Documents: docs, NumTopics: 2, TrainIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if svc.GroundTruth != nil {
		t.Error("ingested corpora have no ground truth")
	}
	hits := svc.Search("stock market", 4)
	if len(hits) == 0 {
		t.Fatal("no hits for indexed content")
	}
	if hits[0].Doc != 0 && hits[0].Doc != 1 {
		t.Errorf("top hit %v not a finance doc", hits[0])
	}
}

func TestServiceSearchTitles(t *testing.T) {
	svc := getService(t)
	hits := svc.Search(svc.topicQueryText(0, 5), 5)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Title == "" {
		t.Error("hits should carry titles")
	}
}

func TestServiceEndToEndPrivateSearch(t *testing.T) {
	svc := getService(t)
	handler, err := svc.Handler()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	obf, err := svc.NewObfuscator(PrivacyParams{Eps1: 0.04, Eps2: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	client, err := svc.NewClient(ts.URL, obf, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := svc.topicQueryText(1, 10)
	private, err := client.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	plain := svc.Search(q, 10)
	if len(private) != len(plain) {
		t.Fatalf("private %d vs plain %d hits", len(private), len(plain))
	}
	for i := range private {
		if private[i].Doc != plain[i].Doc {
			t.Fatalf("result %d: %v vs %v", i, private[i], plain[i])
		}
	}
	// The server must have seen more queries than the user issued.
	if got := len(handler.QueryLog()); got < 2 {
		t.Errorf("server saw %d queries; ghosts missing", got)
	}
}

func TestServiceObfuscatorSuppresses(t *testing.T) {
	svc := getService(t)
	obf, err := svc.NewObfuscator(PrivacyParams{Eps1: 0.04, Eps2: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	worked := 0
	for topic := 0; topic < 8; topic++ {
		terms := svc.AnalyzeQuery(svc.topicQueryText(topic, 12))
		cyc, err := obf.Obfuscate(terms, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(cyc.Intention) > 0 && cyc.Satisfied {
			worked++
		}
	}
	if worked == 0 {
		t.Error("obfuscator never achieved the privacy target")
	}
}

func TestServiceBaselines(t *testing.T) {
	svc := getService(t)
	pdx, err := svc.NewPDX(4, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	qe, err := pdx.Embellish(svc.AnalyzeQuery(svc.topicQueryText(2, 6)), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(qe) < 6 {
		t.Errorf("embellished query too short: %d", len(qe))
	}
	tmn, err := svc.NewTrackMeNot(3, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cycle, idx, err := tmn.Cycle(svc.AnalyzeQuery(svc.topicQueryText(2, 6)), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != 4 || idx >= 4 {
		t.Errorf("TrackMeNot cycle %d queries, user at %d", len(cycle), idx)
	}
}

func TestServiceWorkload(t *testing.T) {
	svc := getService(t)
	qs, err := svc.Workload(WorkloadSpec{Seed: 6, NumQueries: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 20 {
		t.Errorf("workload size %d", len(qs))
	}
	docs := []Document{{Text: "alpha beta gamma alpha beta"}, {Text: "alpha beta alpha gamma"}}
	ingested, err := NewService(ServiceSpec{Seed: 7, Documents: docs, NumTopics: 2, TrainIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingested.Workload(WorkloadSpec{}); err == nil {
		t.Error("ingested service must refuse workload generation")
	}
}

func TestServiceStats(t *testing.T) {
	svc := getService(t)
	stats := svc.Stats()
	if stats.NumDocs != 400 || stats.SizeBytes <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDefaultPrivacyParams(t *testing.T) {
	p := DefaultPrivacyParams()
	if p.Eps1 != 0.05 || p.Eps2 != 0.01 {
		t.Errorf("defaults = %+v, want paper's 5%%/1%%", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestServiceSession(t *testing.T) {
	svc := getService(t)
	sess, err := svc.NewSession(PrivacyParams{Eps1: 0.04, Eps2: 0.015})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3; i++ {
		terms := svc.AnalyzeQuery(svc.topicQueryText(0, 10))
		if _, err := sess.Obfuscate(terms, rng); err != nil {
			t.Fatal(err)
		}
	}
	if len(sess.History) != 3 {
		t.Errorf("history %d, want 3", len(sess.History))
	}
	if _, err := svc.NewSession(PrivacyParams{}); err == nil {
		t.Error("invalid params must error")
	}
}

func TestServiceWithLinkPrior(t *testing.T) {
	svc, err := NewService(ServiceSpec{
		Seed: 93,
		Corpus: CorpusSpec{
			NumDocs:   200,
			NumTopics: 6,
			DocLenMin: 40,
			DocLenMax: 70,
		},
		TrainIters:      30,
		LinkPriorWeight: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := svc.Search(svc.topicQueryText(0, 5), 5)
	if len(hits) == 0 {
		t.Fatal("link-prior engine returned no hits")
	}
	// Privacy layer is unaffected by the ranking variant.
	obf, err := svc.NewObfuscator(PrivacyParams{Eps1: 0.04, Eps2: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obf.Obfuscate(svc.AnalyzeQuery(svc.topicQueryText(0, 10)), rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

func TestServiceRequestAPI(t *testing.T) {
	svc := getService(t)
	ctx := context.Background()
	q := svc.topicQueryText(0, 5)

	hits, stats, err := svc.SearchRequest(ctx, Request{Query: q, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || len(hits) > 7 {
		t.Fatalf("got %d hits", len(hits))
	}
	if hits[0].Title == "" {
		t.Error("hits should carry titles")
	}
	if stats.DocsScored == 0 {
		t.Error("stats should count scored documents")
	}
	short := svc.Search(q, 7)
	for i := range short {
		if hits[i] != short[i] {
			t.Fatalf("rank %d: SearchRequest %+v vs Search %+v", i, hits[i], short[i])
		}
	}

	// A batch — cycle-at-a-time through the facade — matches member-
	// by-member execution.
	reqs := []Request{
		{Query: q, K: 5},
		{Query: svc.topicQueryText(1, 4), K: 3},
	}
	resps, err := svc.SearchBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
	}
	for i, req := range reqs {
		single, _, err := svc.SearchRequest(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resps[i].Hits) != len(single) {
			t.Fatalf("member %d: %d vs %d hits", i, len(resps[i].Hits), len(single))
		}
		for j := range single {
			if resps[i].Hits[j].Doc != single[j].Doc || resps[i].Hits[j].Score != single[j].Score {
				t.Fatalf("member %d rank %d: %+v vs %+v", i, j, resps[i].Hits[j], single[j])
			}
		}
	}

	// Validation errors propagate.
	if _, _, err := svc.SearchRequest(ctx, Request{Query: q, K: 0}); err == nil {
		t.Error("k = 0 must error")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := svc.SearchRequest(canceled, Request{Query: q, K: 5}); err == nil {
		t.Error("canceled context must error")
	}
}
