package cluster

import (
	"net/http/httptest"
	"testing"

	"toppriv/internal/search"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// BenchmarkRouterAdd is one 500-document Router.Add — the system
// benchmark's preload batch — over three in-process shards on loopback
// HTTP, each a store with the default seal threshold that already holds
// its share of 1 500 documents, so every ack names its share of a grown
// vocabulary. Compaction is off, so allocs/op does not depend on when a
// background merge runs.
func BenchmarkRouterAdd(b *testing.B) {
	const batch, preload = 500, 1500
	docs := synthDocs(b, preload+8*batch, 17)
	urls := make([]string, 3)
	for i := range urls {
		st, err := segment.Open(segment.Config{Scoring: vsm.BM25, Analyzer: textproc.NewAnalyzer(), DisableCompaction: true})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := search.NewServer(st, nil)
		if err != nil {
			b.Fatal(err)
		}
		NewShard(st).Mount(srv)
		ts := httptest.NewServer(srv)
		b.Cleanup(func() {
			ts.Close()
			st.Close()
		})
		urls[i] = ts.URL
	}
	r, err := New(Config{Shards: urls, Analyzer: textproc.NewAnalyzer()})
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < preload; lo += batch {
		if _, err := r.Add(docs[lo : lo+batch]...); err != nil {
			b.Fatal(err)
		}
	}
	next := preload
	b.ReportAllocs()
	for b.Loop() {
		if next == len(docs) {
			next = preload
		}
		if _, err := r.Add(docs[next : next+batch]...); err != nil {
			b.Fatal(err)
		}
		next += batch
	}
}
