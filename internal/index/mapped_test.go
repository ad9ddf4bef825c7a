package index

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"toppriv/internal/textproc"
)

// writeTempTPIX serializes x into a fresh temp file and returns its
// path.
func writeTempTPIX(t *testing.T, x *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.tpix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenMappedMatchesRead is the mapped path's core guarantee: an
// index opened through OpenMapped is indistinguishable — postings,
// footprint — from the same file read through Read. Only the residency
// differs: on Linux a mapped index keeps no postings bytes on the heap
// at all.
func TestOpenMappedMatchesRead(t *testing.T) {
	for _, x := range []*Index{fixtureIndex(t), multiBlockIndex(t)} {
		path := writeTempTPIX(t, x)
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Mapped() {
			t.Fatal("OpenMapped must report Mapped")
		}
		assertPostingsMatchFresh(t, m, x)
		ms, xs := m.ComputeStats(), x.ComputeStats()
		if ms.PostingsBytes != xs.PostingsBytes {
			t.Fatalf("PostingsBytes %d vs %d", ms.PostingsBytes, xs.PostingsBytes)
		}
		if ms.ResidentBytes > ms.PostingsBytes {
			t.Fatalf("ResidentBytes %d exceeds PostingsBytes %d", ms.ResidentBytes, ms.PostingsBytes)
		}
		if runtime.GOOS == "linux" && ms.ResidentBytes != 0 {
			t.Fatalf("mapped index pins %d postings bytes on the heap, want 0", ms.ResidentBytes)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal("second Close must be a no-op, got", err)
		}
	}
}

// TestOpenMappedRejectsCorrupt mirrors TestV4CorruptBlocksRejected for
// the mapped open path. Structural damage — truncation anywhere,
// flips in headers, lengths, last docs — must error, never
// panic. Flips inside packed payload bytes MAY be accepted (the mapped
// path skips per-posting verification by design); accepted indexes
// must still traverse without panicking and yield exactly the declared
// posting count per list, because block headers and offsets are always
// validated.
func TestOpenMappedRejectsCorrupt(t *testing.T) {
	x := buildTestIndex(t,
		"apache helicopter army weapons apache helicopter apache",
		"stock market investors trading volume stock",
		"apache webserver software configuration",
		"cooking recipes kitchen dinner helicopter",
	)
	path := writeTempTPIX(t, x)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(data []byte) string {
		p := filepath.Join(dir, "mut.tpix")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenMapped(write(orig)); err != nil {
		t.Fatalf("pristine file must open mapped: %v", err)
	}
	// Truncation at every sampled prefix must error.
	for cut := 0; cut < len(orig); cut += 7 {
		if _, err := OpenMapped(write(orig[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	// Trailing garbage must error too — a mapped image is consumed
	// exactly; leftover bytes mean the file is not one index.
	if _, err := OpenMapped(write(append(append([]byte(nil), orig...), 0xAB, 0xCD))); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Single-byte flips: error or a traversable index with the declared
	// posting counts.
	for pos := 8; pos < len(orig); pos++ {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xFF
		y, err := OpenMapped(write(mut))
		if err != nil || y == nil {
			continue
		}
		var it Iterator
		for tid := 0; tid < y.NumTerms(); tid++ {
			n := 0
			for y.IterInto(textproc.TermID(tid), &it); it.Valid(); it.Next() {
				_ = it.Doc()
				_ = it.TF()
				n++
			}
			if n != y.DocFreq(textproc.TermID(tid)) {
				t.Fatalf("byte %d flipped: term %d yields %d postings, declared %d",
					pos, tid, n, y.DocFreq(textproc.TermID(tid)))
			}
		}
	}
}

// TestOpenMappedMissingFile: opening a nonexistent path errors cleanly.
func TestOpenMappedMissingFile(t *testing.T) {
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "nope.tpix")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestOpenMappedIterators traverses every list of a mapped multi-block
// index and requires exact agreement with the decoded reference,
// proving decode-on-traversal works unchanged over mapped payload views.
func TestOpenMappedIterators(t *testing.T) {
	x := multiBlockIndex(t)
	m, err := OpenMapped(writeTempTPIX(t, x))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var it Iterator
	for tid := 0; tid < x.NumTerms(); tid++ {
		want := x.Postings(textproc.TermID(tid))
		m.IterInto(textproc.TermID(tid), &it)
		for i, p := range want {
			if !it.Valid() || it.Doc() != p.Doc || it.TF() != p.TF {
				t.Fatalf("term %d posting %d: got (%d,%d,%v), want %v",
					tid, i, it.Doc(), it.TF(), it.Valid(), p)
			}
			it.Next()
		}
		if it.Valid() {
			t.Fatalf("term %d: iterator runs past the end", tid)
		}
	}
}
