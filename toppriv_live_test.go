package toppriv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"toppriv/internal/search"
)

func TestServiceLive(t *testing.T) {
	svc, err := NewService(ServiceSpec{
		Seed: 17,
		Corpus: CorpusSpec{
			NumDocs:   120,
			NumTopics: 6,
			DocLenMin: 40,
			DocLenMax: 70,
		},
		TrainIters:    40,
		Live:          true,
		SealThreshold: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.Live() || svc.Store() == nil {
		t.Fatal("service should be live")
	}
	if got := svc.Store().NumDocs(); got != 120 {
		t.Fatalf("store seeded with %d docs, want 120", got)
	}
	if s := svc.Staleness(); s != 0 {
		t.Fatalf("fresh staleness = %v", s)
	}

	// The searcher path works against the store, titles included.
	q := svc.topicQueryText(0, 4)
	hits := svc.Search(q, 5)
	if len(hits) == 0 || hits[0].Title == "" {
		t.Fatalf("live search returned %+v", hits)
	}

	// Adds are searchable at once, fold-in posteriors recorded, and
	// staleness moves.
	ids, err := svc.AddDocuments(Document{Title: "drift", Text: svc.Corpus.Docs[3].Text})
	if err != nil {
		t.Fatal(err)
	}
	theta, ok := svc.FoldedTopics(ids[0])
	if !ok || len(theta) != svc.Model.K {
		t.Fatalf("fold-in posterior missing: %v %v", theta, ok)
	}
	sum := 0.0
	for _, p := range theta {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("fold-in posterior not a distribution: sum %v", sum)
	}
	if svc.Staleness() <= 0 {
		t.Fatal("staleness should grow after an add")
	}
	if _, ok := svc.FoldedTopics(0); ok {
		t.Fatal("training-corpus docs have no fold-in posterior")
	}

	if err := svc.DeleteDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.FoldedTopics(ids[0]); ok {
		t.Fatal("deleted doc still has a fold-in posterior")
	}

	// The handler exposes the mutation endpoints in live mode.
	handler, err := svc.Handler()
	if err != nil {
		t.Fatal(err)
	}
	if !handler.Live() {
		t.Fatal("live service handler should be live")
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	body, _ := json.Marshal(search.IndexRequest{Docs: []Document{{Title: "via http", Text: svc.Corpus.Docs[5].Text}}})
	resp, err := http.Post(ts.URL+"/index", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /index: %d", resp.StatusCode)
	}
}

func TestServiceLiveValidation(t *testing.T) {
	svc := getService(t)
	if svc.Live() {
		t.Fatal("default service should not be live")
	}
	if _, err := svc.AddDocuments(Document{Text: "x"}); err == nil {
		t.Fatal("AddDocuments on immutable service should error")
	}
	if err := svc.DeleteDocument(0); err == nil {
		t.Fatal("DeleteDocument on immutable service should error")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close on immutable service: %v", err)
	}
}
