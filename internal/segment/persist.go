package segment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// On-disk layout of a saved store:
//
//	MANIFEST.json          — version, generation, next ID, scoring, and
//	                         each segment's file, level and tombstones
//	seg-000001-00000.tpix  — one TPIX-codec index per sealed segment
//	seg-000001-00000.docs  — docsMagic, then one frame (package frame)
//	                         per document, holding the record a mutation
//	                         frame carries: gid, title, text
//
// A segment's gids are kept once, in its documents file. Load requires
// them to ascend across the whole stack and stay below the next ID.
//
// The memtable is sealed into a segment by Save, so a saved store is
// always fully on disk. Loading reads the TPIX files back — postings
// and dictionaries round-trip, so no document is ever re-analyzed —
// and replays each segment's dictionary into the shared vocabulary,
// which is sound because the shared dictionary is append-only: every
// segment's dictionary is a prefix of every later segment's. Each
// loaded segment then holds a view of the shared dictionary, as a
// sealed one does, not the copy it was read with.
//
// Crash safety: every Save writes under a fresh generation number (the
// first filename component), never touching the previous generation's
// files, and renames the new manifest into place before deleting
// anything. A crash at any point leaves the prior manifest and its
// complete file set intact; orphans from an interrupted save are
// cleaned up by the next successful one.

const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 2
	docsMagic       = "TPDOC1\n"
)

type manifest struct {
	Version  int           `json:"version"`
	Gen      int64         `json:"gen"`
	NextID   corpus.DocID  `json:"next_id"`
	Scoring  int           `json:"scoring"`
	Segments []manifestSeg `json:"segments"`
}

type manifestSeg struct {
	File  string `json:"file"`
	Level int    `json:"level"`
	Dead  []int  `json:"dead,omitempty"` // local IDs tombstoned
}

// docsName is the documents file beside the TPIX file named file.
func docsName(file string) string { return strings.TrimSuffix(file, ".tpix") + ".docs" }

// Saved reports whether dir holds a saved store for Load to open.
func Saved(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// Save writes a point-in-time snapshot of the store to dir, creating
// it if needed: the memtable is sealed and the segment stack plus
// tombstones captured under the write lock, then all file writing —
// the expensive, fsync-heavy part — happens with no store lock held,
// so searches and mutations proceed while the snapshot lands on disk.
// Mutations after the snapshot simply belong to the next save.
//
// Segment files go under a fresh generation prefix and the manifest is
// renamed into place before the previous generation is deleted, so a
// crash at any point leaves a loadable directory.
//
// Save also works on a closed store: the graceful-shutdown order is
// Close first (reject further mutations, stop the compactor), then
// Save, so nothing acknowledged to a client can miss the snapshot.
func (st *Store) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("segment: save: %w", err)
	}
	st.saveMu.Lock()
	defer st.saveMu.Unlock()

	st.mu.Lock()
	if err := st.sealLocked(); err != nil {
		st.mu.Unlock()
		return err
	}
	gen := st.gen + 1
	segs := slices.Clone(st.segs)
	m := manifest{Version: manifestVersion, Gen: gen, NextID: st.nextID, Scoring: int(st.cfg.Scoring)}
	m.Segments = make([]manifestSeg, len(segs))
	for i, sg := range segs {
		m.Segments[i] = manifestSeg{File: fmt.Sprintf("seg-%06d-%05d.tpix", gen, i), Level: sg.level}
		for d, dead := range sg.dead {
			if dead {
				m.Segments[i].Dead = append(m.Segments[i].Dead, d)
			}
		}
	}
	st.mu.Unlock()

	// From here on only immutable segment state (postings, docs, ids,
	// frozen dictionary views) and the snapshot copies are touched. Each
	// file is durable before the manifest that names it.
	for i, sg := range segs {
		var tpix bytes.Buffer
		_, err := sg.idx.WriteTo(&tpix)
		if err == nil {
			err = frame.WriteFileAtomic(dir, m.Segments[i].File, tpix.Bytes())
		}
		if err == nil {
			err = frame.WriteFileAtomic(dir, docsName(m.Segments[i].File), appendDocs(nil, sg.docs))
		}
		if err != nil {
			return fmt.Errorf("segment: save %s: %w", m.Segments[i].File, err)
		}
	}
	data, err := json.Marshal(m)
	if err == nil {
		err = frame.WriteFileAtomic(dir, manifestName, append(data, '\n'))
	}
	if err != nil {
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	st.mu.Lock()
	st.gen = gen
	st.mu.Unlock()
	// Only now is the old generation garbage; removal failure leaves
	// harmless orphans, not a broken store.
	return removeStaleSegFiles(dir, m)
}

// appendDocs appends the documents file holding docs.
func appendDocs(dst []byte, docs []corpus.Document) []byte {
	dst = append(dst, docsMagic...)
	for i := range docs {
		start := len(dst)
		dst = frame.AppendDoc(append(dst, make([]byte, frame.Header)...), &docs[i])
		frame.Seal(dst[start:])
	}
	return dst
}

// decodeDocs reads a documents file that must hold want documents, each
// gid above the one before it, the first above after, and all below
// next. A cut or a failed checksum is an error: the file is written
// whole before the manifest that names it.
func decodeDocs(data []byte, want int, after, next corpus.DocID) ([]corpus.Document, error) {
	docs := make([]corpus.Document, 0, min(want, len(data)/(frame.Header+frame.DocMin)))
	// The payload bound is the file's size: any document Save writes fits.
	good, err := frame.Walk(data, docsMagic, uint32(min(len(data), math.MaxUint32)), func(off int64, payload []byte) error {
		r := frame.Reader{B: payload, What: "document frame"}
		d := r.Doc()
		switch err := r.End(); {
		case err != nil:
			return fmt.Errorf("at offset %d: %w", off, err)
		case len(docs) == want:
			return fmt.Errorf("more than the %d documents its index holds", want)
		case d.ID <= after:
			return fmt.Errorf("document at offset %d: gid %d does not ascend past gid %d", off, d.ID, after)
		case d.ID >= next:
			return fmt.Errorf("document at offset %d: gid %d is not below the next ID %d", off, d.ID, next)
		}
		after = d.ID
		docs = append(docs, d)
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case good != int64(len(data)):
		return nil, fmt.Errorf("cut short at offset %d", good)
	case len(docs) != want:
		return nil, fmt.Errorf("%d documents, its index holds %d", len(docs), want)
	}
	return docs, nil
}

// removeStaleSegFiles deletes seg-* files not referenced by the
// just-renamed manifest: the previous generation, plus orphans from
// any interrupted save.
func removeStaleSegFiles(dir string, m manifest) error {
	wanted := make(map[string]bool, 2*len(m.Segments))
	for _, ms := range m.Segments {
		wanted[ms.File] = true
		wanted[docsName(ms.File)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segment: save: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && !wanted[name] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("segment: save: %w", err)
			}
		}
	}
	return nil
}

// Load reopens a store saved in dir: segments are read back through the
// TPIX codec (no re-analysis), the shared dictionary is replayed from
// the segment dictionaries (which then become views of it), and live
// statistics are rebuilt by a single postings scan. The background
// compactor starts once loading finishes.
// The saved scoring function overrides cfg.Scoring.
func Load(dir string, cfg Config) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("segment: load: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("segment: load manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("segment: load %s: manifest version %d: this build reads version %d only; rebuild the index from its documents",
			dir, m.Version, manifestVersion)
	}
	cfg.Scoring = vsm.Scoring(m.Scoring)
	st, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	after := corpus.DocID(-1)
	for _, ms := range m.Segments {
		sg, err := st.loadSeg(dir, ms, after, m.NextID)
		if err != nil {
			return nil, err
		}
		st.segs = append(st.segs, sg)
		if n := len(sg.ids); n > 0 {
			after = sg.ids[n-1]
		}
	}
	// Every segment's terms are in the store's dictionary now; each
	// segment drops the dictionary it was read with for a view of the
	// store's, taken once the dictionary is whole so all share one array.
	for i, sg := range st.segs {
		if err := sg.idx.ShareVocab(st.vocab); err != nil {
			return nil, fmt.Errorf("segment: load %s: %w", m.Segments[i].File, err)
		}
	}
	st.nextID = m.NextID
	st.gen = m.Gen
	st.rebuildStatsLocked()
	st.start()
	return st, nil
}

// loadSeg reads the segment ms names, whose gids must lie above after
// and below next.
func (st *Store) loadSeg(dir string, ms manifestSeg, after, next corpus.DocID) (*seg, error) {
	var idx *index.Index
	var err error
	if path := filepath.Join(dir, ms.File); st.cfg.Mapped {
		// Disk-resident open: postings payloads stay views into the
		// mapped file; only metadata is decoded onto the heap.
		idx, err = index.OpenMapped(path)
	} else if f, oerr := os.Open(path); oerr != nil {
		err = oerr
	} else {
		idx, err = index.Read(f)
		f.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("segment: load %s: %w", ms.File, err)
	}
	// Replay this segment's dictionary into the shared vocabulary. The
	// append-only invariant means term t here must intern at ID t; a
	// mismatch means the files are not one store's segments.
	for t := 0; t < idx.NumTerms(); t++ {
		term := idx.Vocab().Term(textproc.TermID(t))
		if got := st.vocab.Add(term); got != textproc.TermID(t) {
			return nil, fmt.Errorf("segment: load %s: dictionary mismatch at term %d (%q)", ms.File, t, term)
		}
	}
	name := docsName(ms.File)
	data, err := os.ReadFile(filepath.Join(dir, name))
	var docs []corpus.Document
	if err == nil {
		docs, err = decodeDocs(data, idx.NumDocs(), after, next)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: load %s: %w", name, err)
	}
	ids := make([]corpus.DocID, len(docs))
	for i := range docs {
		ids[i] = docs[i].ID
	}
	dead := make([]bool, idx.NumDocs())
	live := idx.NumDocs()
	for _, d := range ms.Dead {
		if d < 0 || d >= len(dead) {
			return nil, fmt.Errorf("segment: load %s: tombstone %d out of range", ms.File, d)
		}
		if !dead[d] {
			dead[d] = true
			live--
		}
	}
	return &seg{level: ms.Level, ids: ids, docs: docs, idx: idx, norms: vsm.DocNorms(idx), dead: dead, live: live}, nil
}

// rebuildStatsLocked recomputes liveDocs, liveLen, and per-term df from
// the loaded segments with one postings scan — no text analysis.
func (st *Store) rebuildStatsLocked() {
	st.growDF()
	var it index.Iterator
	for _, sg := range st.segs {
		st.liveDocs += sg.live
		for d := 0; d < sg.idx.NumDocs(); d++ {
			if !sg.dead[d] {
				st.liveLen += sg.idx.DocLen(corpus.DocID(d))
			}
		}
		for t := 0; t < sg.idx.NumTerms(); t++ {
			for sg.idx.IterInto(textproc.TermID(t), &it); it.Valid(); it.NextWindow() {
				docs, _ := it.Window()
				for _, d := range docs {
					if !sg.dead[d] {
						st.df[t]++
					}
				}
			}
		}
	}
}
