// Example liveindex demonstrates the segmented live index: incremental
// ingestion into the memtable, sealing into segments, tombstone
// deletes, background compaction, and persistence — the machinery that
// lets searchd serve queries while its corpus changes underneath it.
//
// Run with:
//
//	go run ./examples/liveindex
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"toppriv/internal/corpus"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

func main() {
	log.SetFlags(0)

	// Synthesize a small corpus to feed in batches.
	an := textproc.NewAnalyzer()
	c, _, err := corpus.Synthesize(corpus.GenSpec{Seed: 7, NumDocs: 200, NumTopics: 8}, an)
	if err != nil {
		log.Fatal(err)
	}

	st, err := segment.Open(segment.Config{
		Analyzer:      an,
		SealThreshold: 32, // small, to show several seals
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Incremental ingestion: the store keeps serving searches while
	// documents stream in; the memtable seals every 32 documents.
	for i := 0; i < len(c.Docs); i += 50 {
		end := i + 50
		if end > len(c.Docs) {
			end = len(c.Docs)
		}
		if _, err := st.Add(c.Docs[i:end]...); err != nil {
			log.Fatal(err)
		}
		s := st.Stats()
		fmt.Printf("after %3d docs: %d sealed segments, %d in memtable\n",
			s.LiveDocs, s.Segments, s.MemtableDocs)
	}

	query := c.Docs[10].Title
	fmt.Printf("\nquery %q:\n", query)
	printTop3(st, query)

	// Deletes are tombstones: visible immediately, reclaimed by
	// compaction.
	for id := corpus.DocID(0); id < 40; id++ {
		if err := st.Delete(id); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ndeleted 40 docs: %d live, %d tombstones\n",
		st.Stats().LiveDocs, st.Stats().Tombstones)

	if err := st.Compact(); err != nil {
		log.Fatal(err)
	}
	s := st.Stats()
	fmt.Printf("after full compaction: %d segments, %d tombstones\n",
		s.Segments, s.Tombstones)

	// Persistence: segments round-trip through the TPIX codec and a
	// binary documents file plus a manifest; loading re-analyzes nothing.
	dir, err := os.MkdirTemp("", "liveindex")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := st.Save(dir); err != nil {
		log.Fatal(err)
	}
	ld, err := segment.Load(dir, segment.Config{Analyzer: an})
	if err != nil {
		log.Fatal(err)
	}
	defer ld.Close()
	fmt.Printf("\nreloaded from %s: %d live docs, next ID %d\n",
		dir, ld.NumDocs(), ld.Stats().NextID)
	printTop3(ld, query)
}

// printTop3 runs query against the store and prints its three best hits.
func printTop3(st *segment.Store, query string) {
	resp, err := st.SearchRequest(context.Background(), vsm.Request{Query: query, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range resp.Hits {
		doc, _ := st.Doc(r.Doc)
		fmt.Printf("  doc %-4d %.4f  %s\n", r.Doc, r.Score, doc.Title)
	}
}
