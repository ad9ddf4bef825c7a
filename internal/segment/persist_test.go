package segment

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"toppriv/internal/corpus"
)

// savedTwoSegments saves a store of gids 0–7 in two segments, 0–3 and
// 4–7, next ID 8, and returns its directory, its manifest and its
// documents in gid order.
func savedTwoSegments(t testing.TB, dir string) (manifest, []corpus.Document) {
	t.Helper()
	st, err := Open(Config{SealThreshold: 4, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	docs := synthDocs(t, 8, 5)
	ids, err := st.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		docs[i], _ = st.Doc(ids[i])
	}
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 2 || m.NextID != 8 {
		t.Fatalf("saved %d segments, next ID %d; want 2 and 8", len(m.Segments), m.NextID)
	}
	return m, docs
}

// TestLoadRefusesGidsOutOfOrder forges documents files whose frames all
// pass their checksums but whose gids break the store's order: each must
// be refused, whichever segment the break shows in.
func TestLoadRefusesGidsOutOfOrder(t *testing.T) {
	for _, tt := range []struct {
		name string
		seg  int
		gids []corpus.DocID
		says string
	}{
		{"as saved", 0, []corpus.DocID{0, 1, 2, 3}, ""},
		{"descending", 0, []corpus.DocID{3, 2, 1, 0}, "does not ascend"},
		{"repeated", 0, []corpus.DocID{0, 1, 1, 3}, "does not ascend"},
		{"into the next segment", 0, []corpus.DocID{1, 2, 3, 4}, "does not ascend"},
		{"hand-edited", 0, []corpus.DocID{7, 6, 5, 100}, "does not ascend"},
		{"past the next ID", 0, []corpus.DocID{0, 1, 2, 100}, "not below the next ID"},
		{"at the next ID", 1, []corpus.DocID{4, 5, 6, 8}, "not below the next ID"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			m, docs := savedTwoSegments(t, dir)
			forged := make([]corpus.Document, len(tt.gids))
			for i, gid := range tt.gids {
				forged[i] = docs[4*tt.seg+i]
				forged[i].ID = gid
			}
			name := filepath.Join(dir, docsName(m.Segments[tt.seg].File))
			if err := os.WriteFile(name, appendDocs(nil, forged), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Load(dir, Config{DisableCompaction: true})
			if tt.says == "" {
				if err != nil {
					t.Fatalf("the saved gids were refused: %v", err)
				}
				st.Close()
				return
			}
			if err == nil {
				st.Close()
				t.Fatalf("gids %v in segment %d were accepted", tt.gids, tt.seg)
			}
			if !strings.Contains(err.Error(), tt.says) {
				t.Fatalf("error %q does not say %q", err, tt.says)
			}
		})
	}
}

// TestDocSameBeforeSaveAndAfterLoad: a store keeps of a document what it
// saves, so Doc answers the same from the memtable, from a sealed
// segment and after a reload — without the generator's TrueTopics.
func TestDocSameBeforeSaveAndAfterLoad(t *testing.T) {
	docs := synthDocs(t, 10, 6)
	if docs[0].TrueTopics == nil {
		t.Fatal("the generator no longer sets TrueTopics; the test needs a field a save drops")
	}
	st, err := Open(Config{SealThreshold: 6, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ids, err := st.Add(docs...)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]corpus.Document, len(ids))
	for i, gid := range ids {
		before[i], _ = st.Doc(gid)
		want := corpus.Document{ID: gid, Title: docs[i].Title, Text: docs[i].Text}
		if !reflect.DeepEqual(before[i], want) {
			t.Fatalf("Doc(%d) = %+v before save, want %+v", gid, before[i], want)
		}
	}
	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir, Config{DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for i, gid := range ids {
		if got, ok := ld.Doc(gid); !ok || !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("Doc(%d) = %+v, %v after load, want %+v", gid, got, ok, before[i])
		}
	}
}

// TestLoadRefusesVersion1 rewrites a saved directory the way a version-1
// build laid it out — the manifest listing each segment's ids and JSON
// documents file — and expects the rebuild message.
func TestLoadRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	m, docs := savedTwoSegments(t, dir)
	type v1Seg struct {
		File  string         `json:"file"`
		Docs  string         `json:"docs"`
		Level int            `json:"level"`
		IDs   []corpus.DocID `json:"ids"`
	}
	v1 := struct {
		Version  int          `json:"version"`
		Gen      int64        `json:"gen"`
		NextID   corpus.DocID `json:"next_id"`
		Scoring  int          `json:"scoring"`
		Segments []v1Seg      `json:"segments"`
	}{1, m.Gen, m.NextID, m.Scoring, nil}
	for i, ms := range m.Segments {
		seg := v1Seg{File: ms.File, Docs: strings.TrimSuffix(ms.File, ".tpix") + ".docs.json", Level: ms.Level}
		for _, d := range docs[4*i : 4*i+4] {
			seg.IDs = append(seg.IDs, d.ID)
		}
		writeJSON(t, filepath.Join(dir, seg.Docs), docs[4*i:4*i+4])
		if err := os.Remove(filepath.Join(dir, docsName(ms.File))); err != nil {
			t.Fatal(err)
		}
		v1.Segments = append(v1.Segments, seg)
	}
	writeJSON(t, filepath.Join(dir, manifestName), v1)
	if !Saved(dir) {
		t.Fatal("Saved does not see the version-1 manifest")
	}
	st, err := Load(dir, Config{})
	if err == nil {
		st.Close()
		t.Fatal("a version-1 directory was loaded")
	}
	if msg := err.Error(); !strings.Contains(msg, "manifest version 1") || !strings.Contains(msg, "rebuild the index from its documents") {
		t.Fatalf("error does not name the rebuild: %v", err)
	}
}

func writeJSON(t testing.TB, name string, v interface{}) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeDocs: arbitrary bytes decode to an error, or to exactly want
// documents with ascending gids that re-encode to the same bytes. No
// input panics, and none allocates more than a small multiple of its
// own size, whatever want claims.
func FuzzDecodeDocs(f *testing.F) {
	dir := f.TempDir()
	m, _ := savedTwoSegments(f, dir)
	saved, err := os.ReadFile(filepath.Join(dir, docsName(m.Segments[0].File)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved, uint32(4))
	f.Add(saved, uint32(math.MaxUint32))
	f.Add(saved[:len(saved)-3], uint32(4))
	f.Add([]byte(docsMagic), uint32(0))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, want uint32) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		docs, err := decodeDocs(data, int(want), -1, math.MaxInt32)
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > 8*uint64(len(data))+64<<10 {
			t.Fatalf("%d input bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if len(docs) != int(want) {
			t.Fatalf("decoded %d documents, want %d", len(docs), want)
		}
		for i := 1; i < len(docs); i++ {
			if docs[i].ID <= docs[i-1].ID {
				t.Fatalf("gid %d follows gid %d", docs[i].ID, docs[i-1].ID)
			}
		}
		if back := appendDocs(nil, docs); !bytes.Equal(back, data) {
			t.Fatalf("decoded documents re-encode to other bytes:\n%x\n%x", data, back)
		}
	})
}
