package segment

import (
	"fmt"
	"time"

	"toppriv/internal/corpus"
	"toppriv/internal/index"
)

// compactLoop is the background compactor: a single goroutine woken by
// seals (kickCompactor) and a periodic tick, merging until no run
// qualifies. Being the only goroutine that restructures the segment
// stack keeps the install step simple.
func (st *Store) compactLoop() {
	defer st.wg.Done()
	tick := time.NewTicker(st.cfg.CompactInterval)
	defer tick.Stop()
	for {
		select {
		case <-st.closeCh:
			return
		case <-st.compactCh:
		case <-tick.C:
		}
		for {
			merged, err := st.compactOnce(st.cfg.CompactFanout)
			if err != nil {
				if st.cfg.Logf != nil {
					st.cfg.Logf("segment: background compaction: %v", err)
				}
				break
			}
			if !merged {
				break
			}
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

// compactOnce finds one qualifying run — a contiguous stretch of ≥
// fanout same-level segments, or any fully-tombstoned segment — and
// compacts it. Returns whether anything was done.
func (st *Store) compactOnce(fanout int) (bool, error) {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	st.mu.Lock()
	// Fully-dead segments are dropped outright; no merge needed.
	for i, sg := range st.segs {
		if sg.live == 0 {
			st.segs = append(st.segs[:i:i], st.segs[i+1:]...)
			st.mu.Unlock()
			return true, nil
		}
	}
	start, end := findRun(st.segs, fanout)
	st.mu.Unlock()
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
	return out, nil
}
