package segment

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// assertSealIsBuild requires every sealed segment of st, however it came
// to be, to be what a from-scratch build of its documents gives: its
// index writes the bytes index.Build writes over the same documents,
// analyzed afresh, under the segment's view of the dictionary, and its
// norms, held at exact size, are vsm.DocNorms over that index bit for
// bit.
func assertSealIsBuild(t *testing.T, step string, st *Store) {
	t.Helper()
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.segs) == 0 {
		t.Fatalf("%s: no sealed segment to check", step)
	}
	for i, sg := range st.segs {
		bags := make([][]textproc.TermID, len(sg.docs))
		for d, doc := range sg.docs {
			for _, term := range st.an.Analyze(doc.Text) {
				bags[d] = append(bags[d], st.vocab.ID(term))
			}
		}
		want, err := index.Build(&corpus.Corpus{Docs: sg.docs, Vocab: sg.idx.Vocab(), Bags: bags})
		if err != nil {
			t.Fatal(err)
		}
		var got, exp bytes.Buffer
		if _, err := sg.idx.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := want.WriteTo(&exp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("%s: level-%d segment %d (%d B) is not index.Build over its %d documents (%d B)",
				step, sg.level, i, got.Len(), len(sg.docs), exp.Len())
		}
		norms := vsm.DocNorms(sg.idx)
		if len(sg.norms) != len(norms) || cap(sg.norms) != len(sg.norms) {
			t.Fatalf("%s: segment %d holds %d norms (cap %d), want %d", step, i, len(sg.norms), cap(sg.norms), len(norms))
		}
		for d := range norms {
			if math.Float64bits(sg.norms[d]) != math.Float64bits(norms[d]) {
				t.Fatalf("%s: segment %d doc %d: norm %v, vsm.DocNorms %v", step, i, d, sg.norms[d], norms[d])
			}
		}
	}
}

// TestSealIsBuild drives a store through seals, deletes, a background
// merge with tombstones, Compact, and Save + Load in heap and mapped
// modes followed by more seals and a merge of loaded segments, and holds
// every segment to index.Build and vsm.DocNorms after each step: a seal
// encodes the memtable's lists and keeps its norms, a merge carries the
// parts' norms over, and neither changes a byte or a bit.
func TestSealIsBuild(t *testing.T) {
	an := textproc.NewAnalyzer()
	docs := synthDocs(t, 200, 31)
	// An empty document is a posting-less row every build must keep.
	docs[17].Text = "the of and"
	st, err := Open(Config{Analyzer: an, SealThreshold: 10, CompactFanout: 4, CompactInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ids, err := st.Add(docs[:60]...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(ids); i += 7 {
		if err := st.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.compactRuns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never merged: %+v", st.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertSealIsBuild(t, "seals and a background merge with tombstones", st)

	if _, err := st.Add(docs[60:100]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	assertSealIsBuild(t, "Compact", st)

	if _, err := st.Add(docs[100:130]...); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSealIsBuild(t, "seals after Compact", st)

	dir := t.TempDir()
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		ld, err := Load(dir, Config{Analyzer: an, SealThreshold: 10, DisableCompaction: true, Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		step := fmt.Sprintf("Load (mapped %v)", mapped)
		assertSealIsBuild(t, step, ld)
		if _, err := ld.Add(docs[130:]...); err != nil {
			t.Fatal(err)
		}
		assertSealIsBuild(t, step+" then seals", ld)
		if err := ld.Compact(); err != nil {
			t.Fatal(err)
		}
		assertSealIsBuild(t, step+" then Compact", ld)
		ld.Close()
	}
}
