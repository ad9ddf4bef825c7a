package segment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
	"toppriv/internal/textproc"
	"toppriv/internal/vsm"
)

// On-disk layout of a saved store:
//
//	MANIFEST.json             — segment list, global-ID maps, tombstones
//	seg-000001-00000.tpix     — one TPIX-codec index per sealed segment
//	seg-000001-00000.docs.json — the segment's raw documents
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
	manifestVersion = 1
)

type manifest struct {
	Version  int           `json:"version"`
	Gen      int64         `json:"gen"`
	NextID   corpus.DocID  `json:"next_id"`
	Scoring  int           `json:"scoring"`
	Segments []manifestSeg `json:"segments"`
}

type manifestSeg struct {
	File  string         `json:"file"`
	Docs  string         `json:"docs"`
	Level int            `json:"level"`
	IDs   []corpus.DocID `json:"ids"`
	Dead  []int          `json:"dead,omitempty"` // local IDs tombstoned
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
	segs := make([]*seg, len(st.segs))
	copy(segs, st.segs)
	deadSnap := make([][]int, len(segs))
	for i, sg := range segs {
		for d, dead := range sg.dead {
			if dead {
				deadSnap[i] = append(deadSnap[i], d)
			}
		}
	}
	m := manifest{Version: manifestVersion, Gen: gen, NextID: st.nextID, Scoring: int(st.cfg.Scoring)}
	st.mu.Unlock()

	// From here on only immutable segment state (postings, docs, ids,
	// frozen dictionary views) and the snapshot copies are touched.
	for i, sg := range segs {
		ms := manifestSeg{
			File:  fmt.Sprintf("seg-%06d-%05d.tpix", gen, i),
			Docs:  fmt.Sprintf("seg-%06d-%05d.docs.json", gen, i),
			Level: sg.level,
			IDs:   sg.ids,
			Dead:  deadSnap[i],
		}
		if err := writeSegFiles(dir, ms, sg); err != nil {
			return err
		}
		m.Segments = append(m.Segments, ms)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(m); err != nil {
		f.Close()
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("segment: save manifest: %w", err)
	}
	st.mu.Lock()
	st.gen = gen
	st.mu.Unlock()
	// Only now is the old generation garbage; removal failure leaves
	// harmless orphans, not a broken store.
	return removeStaleSegFiles(dir, m)
}

func writeSegFiles(dir string, ms manifestSeg, sg *seg) error {
	write := func(name string, fill func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("segment: save %s: %w", name, err)
		}
		if err := fill(f); err != nil {
			f.Close()
			return fmt.Errorf("segment: save %s: %w", name, err)
		}
		// The manifest rename must never become durable before the data
		// it references.
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("segment: save %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("segment: save %s: %w", name, err)
		}
		return nil
	}
	if err := write(ms.File, func(f *os.File) error {
		_, err := sg.idx.WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	return write(ms.Docs, func(f *os.File) error {
		return json.NewEncoder(f).Encode(sg.docs)
	})
}

// syncDir makes a completed rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeStaleSegFiles deletes seg-* files not referenced by the
// just-renamed manifest: the previous generation, plus orphans from
// any interrupted save.
func removeStaleSegFiles(dir string, m manifest) error {
	wanted := make(map[string]bool, 2*len(m.Segments))
	for _, ms := range m.Segments {
		wanted[ms.File] = true
		wanted[ms.Docs] = true
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
	mf, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("segment: load: %w", err)
	}
	var m manifest
	err = json.NewDecoder(mf).Decode(&m)
	mf.Close()
	if err != nil {
		return nil, fmt.Errorf("segment: load manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("segment: load: unsupported manifest version %d", m.Version)
	}
	cfg.Scoring = vsm.Scoring(m.Scoring)
	st, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	for _, ms := range m.Segments {
		sg, err := st.loadSeg(dir, ms)
		if err != nil {
			return nil, err
		}
		st.segs = append(st.segs, sg)
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

func (st *Store) loadSeg(dir string, ms manifestSeg) (*seg, error) {
	var idx *index.Index
	var err error
	if st.cfg.Mapped {
		// Disk-resident open: postings payloads stay views into the
		// mapped file; only metadata is decoded onto the heap.
		idx, err = index.OpenMapped(filepath.Join(dir, ms.File))
		if err != nil {
			return nil, fmt.Errorf("segment: load %s: %w", ms.File, err)
		}
	} else {
		f, oerr := os.Open(filepath.Join(dir, ms.File))
		if oerr != nil {
			return nil, fmt.Errorf("segment: load %s: %w", ms.File, oerr)
		}
		idx, err = index.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("segment: load %s: %w", ms.File, err)
		}
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
	df, err := os.Open(filepath.Join(dir, ms.Docs))
	if err != nil {
		return nil, fmt.Errorf("segment: load %s: %w", ms.Docs, err)
	}
	var docs []corpus.Document
	err = json.NewDecoder(df).Decode(&docs)
	df.Close()
	if err != nil {
		return nil, fmt.Errorf("segment: load %s: %w", ms.Docs, err)
	}
	if len(docs) != idx.NumDocs() || len(ms.IDs) != idx.NumDocs() {
		return nil, fmt.Errorf("segment: load %s: %d docs, %d ids, index has %d",
			ms.File, len(docs), len(ms.IDs), idx.NumDocs())
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
	return &seg{level: ms.Level, ids: ms.IDs, docs: docs, idx: idx, norms: vsm.DocNorms(idx), dead: dead, live: live}, nil
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
