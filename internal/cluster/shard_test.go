package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
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

// sendMutation sends one mutation frame straight to the shard's handler
// on a mutation stream of its own and returns the status it is answered
// with: 200 for an ack, a refusal's own, 0 for neither.
func sendMutation(s *Shard, frame []byte) int {
	conn := &scriptConn{exchanges: [][]byte{frame}}
	s.serve(&shardStream{conn: conn, br: bufio.NewReader(conn)}, mutationStreams)
	_, err := decodeReply(conn.out.Bytes(), maxStats, decodeStats)
	var se *statusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.code
	}
	return 0
}

func ingestText(gid corpus.DocID) string { return fmt.Sprintf("shard ingest rule document %d", gid) }

// addFrame is the mutation frame adding gids under log sequence seq (0:
// none, which the shard refuses).
func addFrame(seq uint64, gids ...corpus.DocID) []byte {
	docs := make([]corpus.Document, len(gids))
	for i, gid := range gids {
		docs[i] = corpus.Document{ID: gid, Title: "doc", Text: ingestText(gid)}
	}
	return appendMutation(nil, seq, 0, appendAdd(nil, docs))
}

// deleteFrame is the mutation frame deleting gid under log sequence seq;
// a gid outside int32 is sent as it is, for the shard to refuse.
func deleteFrame(gid int64, seq uint64) []byte {
	return payloadFrame(seq, 0, opDelete, uint64(gid))
}

// TestShardIngestRefusesUnheldGidBelowNext pins the ingests a shard
// refuses. One without a log sequence gets 400 whatever it names — a
// gid below the store's next ID that the store does not hold included;
// sequenced, that gid is a replay and is skipped, as a held one is. A
// gid beyond int32 (-1 sent as a uvarint) does not decode and gets 400;
// fresh gids that descend get 409. A refused request changes nothing.
func TestShardIngestRefusesUnheldGidBelowNext(t *testing.T) {
	s := newMemShard(t)
	if code := sendMutation(s, addFrame(1, 0, 1, 5)); code != http.StatusOK {
		t.Fatalf("ingest 0, 1, 5: %d", code)
	}
	for _, tt := range []struct {
		name string
		seq  uint64
		gids []corpus.DocID
		want int
	}{
		{"gid in a gap, seq 0", 0, []corpus.DocID{3}, http.StatusBadRequest},
		{"gap after a replay, seq 0", 0, []corpus.DocID{1, 3, 7}, http.StatusBadRequest},
		{"replay of held gids, seq 0", 0, []corpus.DocID{0, 5}, http.StatusBadRequest},
		{"gid beyond int32", 2, []corpus.DocID{-1}, http.StatusBadRequest},
		{"descending fresh gids", 2, []corpus.DocID{9, 8}, http.StatusConflict},
		{"replay of held gids", 2, []corpus.DocID{0, 5}, http.StatusOK},
		{"replay of a gid in a gap", 3, []corpus.DocID{3}, http.StatusOK},
	} {
		next, docs := s.store.NextID(), s.store.NumDocs()
		if code := sendMutation(s, addFrame(tt.seq, tt.gids...)); code != tt.want {
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

// TestShardRefusesVersion1Store: a shard directory whose store a build
// before the documents file saved — a version-1 manifest listing each
// segment's ids, beside seg-*.docs.json files — is refused at open, and
// the error says how to rebuild.
func TestShardRefusesVersion1Store(t *testing.T) {
	dir := t.TempDir()
	st, err := segment.Open(segment.Config{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := corpus.Document{ID: 0, Title: "t", Text: "one saved document"}
	if _, err := st.Add(doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	var m map[string]interface{}
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		t.Fatal(err)
	}
	m["version"] = 1
	for _, s := range m["segments"].([]interface{}) {
		seg := s.(map[string]interface{})
		base := strings.TrimSuffix(seg["file"].(string), ".tpix")
		seg["docs"], seg["ids"] = base+".docs.json", []int{0}
		docs, _ := json.Marshal([]corpus.Document{doc})
		if err := os.WriteFile(filepath.Join(dir, base+".docs.json"), docs, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, base+".docs")); err != nil {
			t.Fatal(err)
		}
	}
	data, _ = json.Marshal(m)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardMetaName), []byte(`{"version":2,"applied_seq":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenShard(segment.Config{}, ShardConfig{Dir: dir, SaveInterval: time.Hour})
	if err == nil {
		s.Close()
		t.Fatal("a version-1 store was opened")
	}
	if msg := err.Error(); !strings.Contains(msg, "manifest version 1") || !strings.Contains(msg, "rebuild the index from its documents") {
		t.Fatalf("error does not name the rebuild: %v", err)
	}
}

// FuzzShardIngest drives one in-memory shard's mutation surface with an
// arbitrary mutation frame payload and then a delete. The shard holds
// gids 0–7, with 2 deleted and compacted away and 7 tombstoned. Nothing
// may panic; a mutation without a log sequence is refused; a 200 add
// leaves every named gid fetchable unless it was deleted; a 200 delete
// leaves its gid unfetchable; a refused mutation changes neither the
// next ID nor the live size; and afterwards every gid the shard
// accepted resolves to its text, under a next ID above it — which a
// store whose IDs stopped ascending fails.
func FuzzShardIngest(f *testing.F) {
	payload := func(b []byte) []byte { return b[frame.Header:] }
	f.Add(payload(addFrame(0, 8, 9)), int64(9), uint64(0))
	f.Add(payload(addFrame(5, 8, 9)), int64(9), uint64(6))
	f.Add(payload(addFrame(4, 2, 7, 8)), int64(2), uint64(5))
	f.Add(payload(addFrame(0, 3)), int64(3), uint64(0))
	f.Add(payload(addFrame(5, 3)), int64(3), uint64(6))
	f.Add(payload(addFrame(0, 12, 10)), int64(-1), uint64(1))
	f.Add(payload(addFrame(1, -4, 8)), int64(7), uint64(1))
	f.Add(payload(addFrame(0, 2147483647)), int64(2147483647), uint64(0))
	f.Add(payload(addFrame(5, 2147483647)), int64(2147483647), uint64(6))
	f.Add(append(payload(addFrame(2, 8)), 0), int64(8), uint64(3))
	f.Add(payload(deleteFrame(4, 0)), int64(0), uint64(0))
	f.Add(payload(deleteFrame(4, 5)), int64(0), uint64(6))
	f.Fuzz(func(t *testing.T, body []byte, del int64, delSeq uint64) {
		s := newMemShard(t)
		live := map[corpus.DocID]string{}
		deleted := map[corpus.DocID]bool{2: true, 7: true}
		seq := uint64(0)
		for _, batch := range [][]corpus.DocID{{0, 1, 2, 3, 4, 5}, {6, 7}} {
			seq++
			if code := sendMutation(s, addFrame(seq, batch...)); code != http.StatusOK {
				t.Fatalf("preload %v: %d", batch, code)
			}
			for _, gid := range batch {
				live[gid] = ingestText(gid)
				if deleted[gid] {
					seq++
					if code := sendMutation(s, deleteFrame(int64(gid), seq)); code != http.StatusOK {
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

		// The input is sealed into a frame: a mutated frame hardly ever
		// passes its CRC, so the decoder and the shard would go unfuzzed.
		for _, frame := range [][]byte{payloadFrame(body), deleteFrame(del, delSeq)} {
			next := s.store.NextID()
			docs, size := s.store.LiveSize()
			if code := sendMutation(s, frame); code != http.StatusOK {
				if d, n := s.store.LiveSize(); s.store.NextID() != next || d != docs || n != size {
					t.Fatalf("refused mutation (%d) changed the store: next ID %d → %d, live %d/%d → %d/%d",
						code, next, s.store.NextID(), docs, size, d, n)
				}
				continue
			}
			m, err := decodeMutation(frame)
			if err != nil {
				t.Fatalf("200 for a frame that does not decode: %v", err)
			}
			if m.seq == 0 {
				t.Fatal("200 for a mutation without a log sequence")
			}
			if m.del {
				if _, ok := s.store.Doc(m.gid); ok {
					t.Fatalf("200 delete left gid %d fetchable", m.gid)
				}
				delete(live, m.gid)
			}
			for _, d := range m.docs {
				if d.ID >= next {
					live[d.ID] = d.Text
				}
				if _, ok := s.store.Doc(d.ID); !ok && !deleted[d.ID] {
					t.Fatalf("200 add left named gid %d unfetchable", d.ID)
				}
			}
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
