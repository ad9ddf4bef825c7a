package segment

import (
	"fmt"
	"slices"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
)

// busyFanout is the length of a same-level run of segments that the
// compactor merges into the next level while documents arrive (the
// system benchmark's settle waits on the same number).
const busyFanout = 4

// compactLoop is the background compactor: a single goroutine woken by
// seals (kickCompactor) and a periodic tick. While documents arrive it
// tiers: a run of fanout same-level segments merges into the next
// level. A tick that finds no seal since the previous one — a whole
// CompactInterval without one — also folds: it merges the newest run
// of two or more same-level heap segments until no two adjacent ones
// share a level. Levels descend from the oldest segment to the newest,
// so a folded stack of heap segments holds one segment per level.
// Either way a merge lifts its documents one level, and a level-l
// segment holds at least 2^l seals, so a document is rewritten at most
// ⌊log₂ seals⌋ times, however seals and quiet periods interleave. A
// store that has not sealed since Open or Load is never folded, and a
// fold leaves mapped segments as they are. Being the only goroutine
// that restructures the segment stack keeps the install step simple.
func (st *Store) compactLoop() {
	defer st.wg.Done()
	tick := time.NewTicker(st.cfg.CompactInterval)
	defer tick.Stop()
	var seen uint64 // seals at the previous tick
	for {
		quiet := false
		select {
		case <-st.closeCh:
			return
		case <-st.compactCh:
		case <-tick.C:
			seals := st.seals.Load()
			quiet = seals > 0 && seals == seen
			seen = seals
		}
		st.compactAll(false)
		if quiet {
			st.compactAll(true)
		}
	}
}

// compactAll runs compaction steps until none applies or one fails.
func (st *Store) compactAll(quiet bool) {
	for {
		merged, err := st.compactOnce(quiet)
		if err != nil {
			if st.cfg.Logf != nil {
				st.cfg.Logf("segment: background compaction: %v", err)
			}
			return
		}
		if !merged {
			return
		}
	}
}

// kickCompactor nudges the background compactor without blocking.
func (st *Store) kickCompactor() {
	select {
	case st.compactCh <- struct{}{}:
	default:
	}
}

// Compact synchronously merges every sealed segment (after flushing the
// memtable) into a single segment — a full compaction, used by tests,
// benchmarks, and operators who want a maximally-packed store.
func (st *Store) Compact() error {
	if err := st.Flush(); err != nil {
		return err
	}
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	for {
		st.mu.RLock()
		n := len(st.segs)
		st.mu.RUnlock()
		if n <= 1 {
			return nil
		}
		if _, err := st.compactRun(0, n); err != nil {
			return err
		}
	}
}

// compactOnce takes one compaction step: it drops a fully-tombstoned
// segment, or merges the run that findRun (busy) or findQuietRun
// (quiet) picks. Returns whether anything was done.
func (st *Store) compactOnce(quiet bool) (bool, error) {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	st.mu.RLock()
	dead := slices.IndexFunc(st.segs, func(sg *seg) bool { return sg.live == 0 })
	start, end := -1, -1
	switch {
	case dead >= 0:
	case quiet:
		start, end = findQuietRun(st.segs)
	default:
		start, end = findRun(st.segs, st.cfg.fanout)
	}
	st.mu.RUnlock()
	if dead >= 0 {
		// Fully-dead segments are dropped outright; no merge needed.
		// Under compactMu the stack only grows at its end, and a dead
		// segment stays dead, so it is still at dead.
		st.mu.Lock()
		st.segs = slices.Concat(st.segs[:dead], st.segs[dead+1:])
		st.mu.Unlock()
		return true, nil
	}
	if start < 0 {
		return false, nil
	}
	_, err := st.compactRun(start, end)
	return err == nil, err
}

// findRun locates the first maximal run of same-level segments of
// length ≥ fanout. Returns start = -1 when none qualifies.
func findRun(segs []*seg, fanout int) (int, int) {
	i := 0
	for i < len(segs) {
		j := i + 1
		for j < len(segs) && segs[j].level == segs[i].level {
			j++
		}
		if j-i >= fanout {
			return i, j
		}
		i = j
	}
	return -1, -1
}

// findQuietRun locates the newest maximal run of two or more
// same-level segments whose postings are on the heap. Returns start =
// -1 when none qualifies.
func findQuietRun(segs []*seg) (int, int) {
	heap := func(i int) bool { return !segs[i].idx.Mapped() }
	end := len(segs)
	for end > 0 {
		start := end - 1
		for heap(start) && start > 0 && heap(start-1) && segs[start-1].level == segs[end-1].level {
			start--
		}
		if end-start >= 2 {
			return start, end
		}
		end = start
	}
	return -1, -1
}

// compactRun merges segments [start, end) of the current stack into one
// segment at level max(levels)+1. The merge itself — the expensive part
// — runs without the store lock against a tombstone snapshot; the
// install step revalidates under the write lock and re-applies any
// deletes that landed mid-merge.
func (st *Store) compactRun(start, end int) (*seg, error) {
	began := time.Now()
	st.mu.RLock()
	if start < 0 || end > len(st.segs) || end-start < 2 {
		st.mu.RUnlock()
		return nil, fmt.Errorf("segment: compact run [%d,%d) out of range", start, end)
	}
	parts := make([]*seg, end-start)
	copy(parts, st.segs[start:end])
	deadSnap := make([][]bool, len(parts))
	level := 0
	for i, sg := range parts {
		snap := make([]bool, len(sg.dead))
		copy(snap, sg.dead)
		deadSnap[i] = snap
		if sg.level > level {
			level = sg.level
		}
	}
	st.mu.RUnlock()

	// Merge postings outside the lock: searches keep running against
	// the old stack the whole time.
	idxs := make([]*index.Index, len(parts))
	keeps := make([]func(corpus.DocID) bool, len(parts))
	for i, sg := range parts {
		idxs[i] = sg.idx
		snap := deadSnap[i]
		keeps[i] = func(d corpus.DocID) bool { return !snap[d] }
	}
	merged, remap, err := index.Merge(idxs, keeps)
	if err != nil {
		return nil, err
	}
	// A document's lnc norm depends on its tfs alone, summed in
	// ascending term order in every part, so the merged segment carries
	// the parts' norms over: the bits vsm.DocNorms(merged) would compute.
	ids := make([]corpus.DocID, 0, merged.NumDocs())
	docs := make([]corpus.Document, 0, merged.NumDocs())
	norms := make([]float64, 0, merged.NumDocs())
	for i, sg := range parts {
		for d, nd := range remap[i] {
			if nd != index.DroppedDoc {
				ids = append(ids, sg.ids[d])
				docs = append(docs, sg.docs[d])
				norms = append(norms, sg.norms[d])
			}
		}
	}
	out := &seg{
		level: level + 1,
		ids:   ids,
		docs:  docs,
		idx:   merged,
		norms: norms,
		dead:  make([]bool, merged.NumDocs()),
		live:  merged.NumDocs(),
	}

	st.mu.Lock()
	err = func() error {
		// Only this goroutine restructures the stack (single compactor;
		// Compact serializes with it through the same lock ordering), and
		// seals only append, so the run is still at [start, end). Verify
		// anyway — bail out rather than corrupt the stack.
		if end > len(st.segs) {
			return fmt.Errorf("segment: stack changed during compaction")
		}
		for i, sg := range parts {
			if st.segs[start+i] != sg {
				return fmt.Errorf("segment: stack changed during compaction")
			}
		}
		// Deletes that landed while merging: the doc survived into the
		// merged segment but is now dead. Stats were already adjusted by
		// Delete; only the tombstone bit must carry over.
		for i, sg := range parts {
			for d := range sg.dead {
				if sg.dead[d] && !deadSnap[i][d] {
					if nd := remap[i][d]; nd != index.DroppedDoc {
						out.dead[nd] = true
						out.live--
					}
				}
			}
		}
		stack := make([]*seg, 0, len(st.segs)-(end-start)+1)
		stack = append(stack, st.segs[:start]...)
		stack = append(stack, out)
		stack = append(stack, st.segs[end:]...)
		st.segs = stack
		// Do NOT unmap the retired parts: a Save snapshot may still be
		// serializing these indexes, and a search that snapshotted the
		// old stack may still be reading them, without the store lock —
		// the mapping finalizer reclaims them once no reference remains.
		return nil
	}()
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	st.compactRuns.Add(1)
	st.compactNanos.Add(time.Since(began).Nanoseconds())
	st.compactDocs.Add(uint64(len(ids)))
	return out, nil
}
