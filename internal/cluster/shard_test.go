package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/segment"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// newMemShard is one in-memory shard over a store that seals every four
// documents and never compacts on its own.
func newMemShard(t testing.TB) *Shard {
	t.Helper()
	st, err := segment.Open(segment.Config{
		Scoring:           vsm.BM25,
		Analyzer:          textproc.NewAnalyzer(),
		SealThreshold:     4,
		DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return NewShard(st)
}

// postIngest sends one POST /cluster/index body straight to the shard's
// handler and returns the status.
func postIngest(s *Shard, body []byte) int {
	w := httptest.NewRecorder()
	s.handleIngest(w, httptest.NewRequest(http.MethodPost, "/cluster/index", bytes.NewReader(body)))
	return w.Code
}

// deleteDoc sends one DELETE /cluster/doc/{gid} straight to the shard's
// handler and returns the status.
func deleteDoc(s *Shard, gid int64, seq uint64) int {
	w := httptest.NewRecorder()
	s.handleDoc(w, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/cluster/doc/%d?seq=%d", gid, seq), nil))
	return w.Code
}

func ingestText(gid corpus.DocID) string { return fmt.Sprintf("shard ingest rule document %d", gid) }

// ingestBody is a POST /cluster/index body naming gids, under journal
// sequence seq (0: unjournaled).
func ingestBody(t testing.TB, seq uint64, gids ...corpus.DocID) []byte {
	t.Helper()
	ir := ingestRequest{Seq: seq}
	for _, gid := range gids {
		ir.Docs = append(ir.Docs, ingestDoc{Gid: gid, Doc: corpus.Document{Title: "doc", Text: ingestText(gid)}})
	}
	body, err := json.Marshal(ir)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestShardIngestRefusesUnheldGidBelowNext pins the one ingest a shard
// refuses: an unjournaled request naming a gid below the store's next
// ID that the store does not hold. It gets 409 and changes nothing; a
// held gid in the same place is a replay and is skipped.
func TestShardIngestRefusesUnheldGidBelowNext(t *testing.T) {
	s := newMemShard(t)
	if code := postIngest(s, ingestBody(t, 0, 0, 1, 5)); code != http.StatusOK {
		t.Fatalf("ingest 0, 1, 5: %d", code)
	}
	for _, tt := range []struct {
		name string
		gids []corpus.DocID
		want int
	}{
		{"gid in a gap", []corpus.DocID{3}, http.StatusConflict},
		{"gap after a replay", []corpus.DocID{1, 3, 7}, http.StatusConflict},
		{"negative gid", []corpus.DocID{-1}, http.StatusConflict},
		{"descending fresh gids", []corpus.DocID{9, 8}, http.StatusConflict},
		{"replay of held gids", []corpus.DocID{0, 5}, http.StatusOK},
	} {
		next, docs := s.store.NextID(), s.store.NumDocs()
		if code := postIngest(s, ingestBody(t, 0, tt.gids...)); code != tt.want {
			t.Fatalf("%s: %d, want %d", tt.name, code, tt.want)
		}
		if s.store.NextID() != next || s.store.NumDocs() != docs {
			t.Fatalf("%s: next ID %d → %d, docs %d → %d", tt.name, next, s.store.NextID(), docs, s.store.NumDocs())
		}
	}
	if _, ok := s.store.Doc(3); ok {
		t.Fatal("refused gid 3 is held")
	}
}

// TestShardMetaLagAfterCompaction: SHARD.json lags the store by a save
// in which a document was ingested, deleted and compacted away. The
// re-driven ingest names a gid below the next ID that the store no
// longer holds; being journaled, it is skipped as a replay, so every
// other document comes back and the deleted one stays deleted.
func TestShardMetaLagAfterCompaction(t *testing.T) {
	pc := newPCluster(t, vsm.BM25, 1, Config{})
	r := pc.router
	p := pc.shards[0]
	docs := synthDocs(t, 12, 78)

	if _, err := r.Add(docs[:6]...); err != nil {
		t.Fatal(err)
	}
	p.save()
	stale, err := os.ReadFile(filepath.Join(p.dir, shardMetaName))
	if err != nil {
		t.Fatal(err)
	}
	gids2, err := r.Add(docs[6:]...)
	if err != nil {
		t.Fatal(err)
	}
	deleted := gids2[2]
	if err := r.Delete(deleted); err != nil {
		t.Fatal(err)
	}
	if err := p.shard.Store().Compact(); err != nil {
		t.Fatal(err)
	}
	p.save()
	if err := os.WriteFile(filepath.Join(p.dir, shardMetaName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	p.crash()
	p.start()
	pc.settle()

	for i, gid := range gids2 {
		got, ok := r.Doc(gid)
		if gid == deleted {
			if ok {
				t.Fatalf("deleted doc %d is back", gid)
			}
			continue
		}
		if !ok || got.Text != docs[6+i].Text {
			t.Fatalf("doc %d lost or aliased after the meta-lag crash (ok=%v)", gid, ok)
		}
	}
	if n := p.shard.Store().NumDocs(); n != len(docs)-1 {
		t.Fatalf("shard holds %d docs, want %d", n, len(docs)-1)
	}
}

// TestShardRefusesVersion1Meta: a SHARD.json from a build whose store
// numbered documents apart from their gids is refused at open, and the
// error says how to rebuild.
func TestShardRefusesVersion1Meta(t *testing.T) {
	dir := t.TempDir()
	st, err := segment.Open(segment.Config{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(corpus.Document{Text: "one saved document"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	v1 := `{"version":1,"gids":[7],"applied_seq":3}`
	if err := os.WriteFile(filepath.Join(dir, shardMetaName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShard(segment.Config{}, ShardConfig{Dir: dir, SaveInterval: time.Hour})
	if err == nil {
		s.Close()
		t.Fatal("a version-1 SHARD.json was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "rebuild") {
		t.Fatalf("error does not name the rebuild: %v", err)
	}
}

// FuzzShardIngest drives one in-memory shard's mutation surface with an
// arbitrary POST /cluster/index body and then a DELETE. The shard holds
// gids 0–7, with 2 deleted and compacted away and 7 tombstoned. Nothing
// may panic; a 200 ingest leaves every named gid fetchable unless it
// was deleted; a 200 delete leaves its gid unfetchable; a refused
// request changes neither the next ID nor the live size; and afterwards
// every gid the shard accepted resolves to its text, under a next ID
// above it — which a store whose IDs stopped ascending fails.
func FuzzShardIngest(f *testing.F) {
	f.Add(ingestBody(f, 0, 8, 9), int64(9), uint64(0))
	f.Add(ingestBody(f, 4, 2, 7, 8), int64(2), uint64(5))
	f.Add(ingestBody(f, 0, 3), int64(3), uint64(0))
	f.Add(ingestBody(f, 0, 12, 10), int64(-1), uint64(1))
	f.Add(ingestBody(f, 1, -4, 8), int64(7), uint64(1))
	f.Add(ingestBody(f, 0, 2147483647), int64(2147483647), uint64(0))
	f.Add([]byte(`{"docs":[{"gid":8,"doc":{"text":"x"}}],"seq":2}{`), int64(8), uint64(3))
	f.Add([]byte(`{"docs":[{"gid":8},{"gid":8}]}`), int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, body []byte, del int64, delSeq uint64) {
		s := newMemShard(t)
		live := map[corpus.DocID]string{}
		deleted := map[corpus.DocID]bool{2: true, 7: true}
		for _, batch := range [][]corpus.DocID{{0, 1, 2, 3, 4, 5}, {6, 7}} {
			if code := postIngest(s, ingestBody(t, 0, batch...)); code != http.StatusOK {
				t.Fatalf("preload %v: %d", batch, code)
			}
			for _, gid := range batch {
				live[gid] = ingestText(gid)
				if deleted[gid] {
					if code := deleteDoc(s, int64(gid), 0); code != http.StatusOK {
						t.Fatalf("preload delete %d: %d", gid, code)
					}
					delete(live, gid)
				}
			}
			if batch[0] == 0 {
				if err := s.store.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}

		unchanged := func(what string, next corpus.DocID, docs int, size int64) {
			t.Helper()
			if d, n := s.store.LiveSize(); s.store.NextID() != next || d != docs || n != size {
				t.Fatalf("refused %s changed the store: next ID %d → %d, live %d/%d → %d/%d",
					what, next, s.store.NextID(), docs, size, d, n)
			}
		}

		next := s.store.NextID()
		docs, size := s.store.LiveSize()
		if code := postIngest(s, body); code == http.StatusOK {
			var ir ingestRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ir); err != nil {
				t.Fatalf("200 for a body that does not decode: %v", err)
			}
			for _, d := range ir.Docs {
				if d.Gid >= next {
					live[d.Gid] = d.Doc.Text
				}
				if _, ok := s.store.Doc(d.Gid); !ok && !deleted[d.Gid] {
					t.Fatalf("200 ingest left named gid %d unfetchable", d.Gid)
				}
			}
		} else {
			unchanged(fmt.Sprintf("ingest (%d)", code), next, docs, size)
		}

		next = s.store.NextID()
		docs, size = s.store.LiveSize()
		if code := deleteDoc(s, del, delSeq); code == http.StatusOK {
			if _, ok := s.store.Doc(corpus.DocID(del)); ok {
				t.Fatalf("200 delete left gid %d fetchable", del)
			}
			delete(live, corpus.DocID(del))
		} else {
			unchanged(fmt.Sprintf("delete (%d)", code), next, docs, size)
		}

		for gid, text := range live {
			doc, ok := s.store.Doc(gid)
			if !ok || doc.ID != gid || doc.Text != text {
				t.Fatalf("accepted gid %d resolves to %+v (ok=%v)", gid, doc, ok)
			}
			if gid >= s.store.NextID() {
				t.Fatalf("accepted gid %d at or above the next ID %d", gid, s.store.NextID())
			}
		}
		if s.store.NumDocs() != len(live) {
			t.Fatalf("store holds %d live docs, accepted %d", s.store.NumDocs(), len(live))
		}
	})
}
