package index

import "toppriv/internal/corpus"

// Iterator is a cursor over one term's postings list — the traversal
// primitive of document-at-a-time (DAAT) query evaluation. A fresh
// iterator is positioned on the first posting; Valid reports whether
// the cursor is on a posting, and Next/SeekGE advance it. The zero
// value is an exhausted iterator over an empty list.
//
// Iterators come in two modes sharing one API: over a plain
// PostingList slice (the live memtable, tests) and over a compressed
// list (every *Index), where postings are decoded block-at-a-time
// into the iterator's own small buffer — doc IDs when a block is
// entered, term frequencies only if TF is actually read — so
// traversal never materializes []Posting and a skipped block is never
// decoded. The buffers live inside the struct; hot paths hold
// iterators in pooled slots and reposition them in place (Index
// IterInto, ResetList), so steady-state queries allocate nothing and
// never clear or copy the kilobyte of buffer.
//
// Both modes present the list in blocks of BlockSize postings (the
// compressed blocks themselves; consecutive runs of a slice):
// BlockIndex and BlockLastDoc describe the current block, Window hands
// out its postings in bulk, and SkipBlock jumps past its remainder
// without walking — or, in compressed mode, even decoding — it.
type Iterator struct {
	pl  PostingList  // slice mode (nil in compressed mode)
	cl  *compList    // compressed mode (nil in slice mode)
	pos int          // global posting ordinal
	n   int          // total postings
	cur corpus.DocID // current posting's doc; maintained by every move

	// Compressed-mode decode state: the current block, its parsed
	// header, and its decoded window. tfOK marks the tf half of the
	// window decoded.
	blk      int
	blkStart int
	blkLen   int
	tfOK     bool
	hdr      blockHeader
	// probes counts document comparisons made by SeekGE (block-level
	// and in-window) since the iterator was (re)positioned — the
	// evidence the seek-after-skip regression tests assert on.
	probes int
	// decodes counts compressed blocks whose doc IDs were actually
	// decoded since the iterator was (re)positioned — the complement of
	// probes in the cost model: together they show how much decode work
	// block skipping saved. Always 0 in slice mode. Cache hits fill the
	// window without decoding and are not counted.
	decodes int
	// cache, when non-nil, interposes the shared decoded-block cache on
	// loadBlock; ckey carries the owning index's namespace and the
	// list's term, with the block ordinal filled per lookup.
	cache  *BlockCache
	ckey   cacheKey
	docBuf [BlockSize]corpus.DocID
	tfBuf  [BlockSize]int32
}

// Iter returns an iterator positioned on the list's first posting.
func (pl PostingList) Iter() Iterator {
	it := Iterator{pl: pl, n: len(pl)}
	if it.n > 0 {
		it.cur = pl[0].Doc
	}
	return it
}

// ResetList repositions the iterator over a plain postings slice
// without touching the decode buffers — the in-place counterpart of
// Iter for pooled iterator slots.
func (it *Iterator) ResetList(pl PostingList) {
	it.pl, it.cl = pl, nil
	it.cache = nil
	it.pos, it.n, it.probes, it.decodes = 0, len(pl), 0, 0
	if it.n > 0 {
		it.cur = pl[0].Doc
	}
}

// resetCompCached repositions the iterator over a compressed list,
// decoding only the first block's doc IDs, with an optional
// decoded-block cache attached: block loads (including the first,
// here) consult the cache before decoding. Index.Iter/IterInto route
// through it so a cache-backed index transparently shares hot blocks
// across its iterators.
func (it *Iterator) resetCompCached(cl *compList, c *BlockCache, owner uint32, term int32) {
	it.pl, it.cl = nil, cl
	it.cache = c
	it.ckey = cacheKey{owner: owner, term: term}
	it.pos, it.n, it.probes, it.decodes = 0, int(cl.n), 0, 0
	it.blk, it.blkStart, it.blkLen, it.tfOK = 0, 0, 0, false
	if it.n > 0 {
		it.loadBlock(0)
	}
}

// newCompIterator returns an uncached decode-on-traversal iterator
// positioned on the first posting of a compressed list.
func newCompIterator(cl *compList) Iterator {
	var it Iterator
	it.resetCompCached(cl, nil, 0, 0)
	return it
}

// loadBlock decodes block b's doc IDs and positions the cursor on its
// first posting, reporting whether b exists. With a cache attached a
// hit fills both window halves (docs and tfs) from the cached copy
// without touching the packed payload — on a mapped index that is
// what keeps hot blocks from faulting their pages back in — and a
// miss decodes both halves eagerly and inserts them.
func (it *Iterator) loadBlock(b int) bool {
	if b >= it.cl.numBlocks() {
		it.pos = it.n
		return false
	}
	it.blk = b
	it.blkStart = it.cl.blockStart(b)
	if c := it.cache; c != nil {
		it.ckey.block = int32(b)
		if n, ok := c.get(it.ckey, &it.docBuf, &it.tfBuf); ok {
			it.blkLen = n
			it.tfOK = true
		} else {
			it.hdr = it.cl.decodeBlockDocs(b, &it.docBuf)
			it.decodes++
			it.blkLen = it.hdr.count
			it.cl.decodeBlockTFs(it.hdr, &it.tfBuf)
			it.tfOK = true
			c.put(it.ckey, &it.docBuf, &it.tfBuf, it.blkLen)
		}
	} else {
		it.hdr = it.cl.decodeBlockDocs(b, &it.docBuf)
		it.decodes++
		it.blkLen = it.hdr.count
		it.tfOK = false
	}
	it.pos = it.blkStart
	it.cur = it.docBuf[0]
	return true
}

// Len returns the total number of postings in the underlying list.
func (it *Iterator) Len() int { return it.n }

// LastDoc returns the last document of the whole list — available
// without decoding in compressed mode. The list must be non-empty.
func (it *Iterator) LastDoc() corpus.DocID {
	if it.cl != nil {
		return it.cl.lastDoc
	}
	return it.pl[it.n-1].Doc
}

// BlockIndex returns the ordinal of the current block: the entry of
// Index.BlockMaxes that bounds the current posting.
func (it *Iterator) BlockIndex() int {
	if it.cl != nil {
		return it.blk
	}
	return it.pos / BlockSize
}

// BlockLastDoc returns the last document of the current block, read
// from block metadata without any decoding. Valid must be true.
func (it *Iterator) BlockLastDoc() corpus.DocID {
	if it.cl != nil {
		return it.cl.blockLast(it.blk)
	}
	end := (it.pos/BlockSize + 1) * BlockSize
	if end > len(it.pl) {
		end = len(it.pl)
	}
	return it.pl[end-1].Doc
}

// SkipBlock advances past the remainder of the current block to the
// first posting of the next one, reporting whether the iterator is
// still valid. The skipped remainder is never decoded. Valid must be
// true on entry.
func (it *Iterator) SkipBlock() bool {
	if it.cl != nil {
		return it.loadBlock(it.blk + 1)
	}
	it.pos = (it.pos/BlockSize + 1) * BlockSize
	if it.pos >= len(it.pl) {
		it.pos = len(it.pl)
		return false
	}
	it.cur = it.pl[it.pos].Doc
	return true
}

// Valid reports whether the iterator is positioned on a posting.
func (it *Iterator) Valid() bool { return it.pos < it.n }

// Doc returns the current posting's document ID. Valid must be true.
func (it *Iterator) Doc() corpus.DocID { return it.cur }

// TF returns the current posting's term frequency. Valid must be true.
// In compressed mode the first TF read of a block decodes the block's
// tf payload; blocks that are only seeked across never pay it.
func (it *Iterator) TF() int32 {
	if it.cl != nil {
		if !it.tfOK {
			it.cl.decodeBlockTFs(it.hdr, &it.tfBuf)
			it.tfOK = true
		}
		return it.tfBuf[it.pos-it.blkStart]
	}
	return it.pl[it.pos].TF
}

// Next advances to the following posting, reporting whether the
// iterator is still valid.
func (it *Iterator) Next() bool {
	it.pos++
	if it.cl == nil {
		if it.pos >= it.n {
			return false
		}
		it.cur = it.pl[it.pos].Doc
		return true
	}
	if i := it.pos - it.blkStart; i < it.blkLen {
		it.cur = it.docBuf[i]
		return true
	}
	return it.loadBlock(it.blk + 1)
}

// Window returns the postings from the cursor through the end of the
// current decoded block as parallel doc/tf slices — the bulk surface
// the exhaustive and batch traversals consume, one tight loop per
// block instead of three method calls per posting. In slice mode the
// next run of up to BlockSize postings is staged through the same
// buffers. The slices are valid until the iterator moves; advance
// with NextWindow. Valid must be true.
func (it *Iterator) Window() (docs []corpus.DocID, tfs []int32) {
	if it.cl != nil {
		if !it.tfOK {
			it.cl.decodeBlockTFs(it.hdr, &it.tfBuf)
			it.tfOK = true
		}
		lo, hi := it.pos-it.blkStart, it.blkLen
		return it.docBuf[lo:hi], it.tfBuf[lo:hi]
	}
	end := it.pos + BlockSize
	if end > it.n {
		end = it.n
	}
	m := end - it.pos
	for i, p := range it.pl[it.pos:end] {
		it.docBuf[i] = p.Doc
		it.tfBuf[i] = p.TF
	}
	return it.docBuf[:m], it.tfBuf[:m]
}

// NextWindow advances past the postings Window returned, reporting
// whether any remain.
func (it *Iterator) NextWindow() bool {
	if it.cl != nil {
		return it.loadBlock(it.blk + 1)
	}
	it.pos += BlockSize
	if it.pos >= it.n {
		it.pos = it.n
		return false
	}
	it.cur = it.pl[it.pos].Doc
	return true
}

// SeekProbes returns the cumulative number of document comparisons
// SeekGE has made on this iterator — the cost model the
// seek-after-skip regression tests pin down.
func (it *Iterator) SeekProbes() int { return it.probes }

// BlocksDecoded returns how many compressed blocks this iterator
// decoded since it was (re)positioned — 0 in slice mode, where nothing
// is compressed. Blocks that SeekGE or SkipBlock passed over without
// decoding are not counted, so comparing against ceil(Len/BlockSize)
// measures how much decode work pruning actually saved.
func (it *Iterator) BlocksDecoded() int { return it.decodes }

// SeekGE advances to the first posting with Doc >= d, reporting whether
// one exists. It never moves backwards; seeking to a document at or
// before the current position is a no-op. In compressed mode the
// search resumes from the current block: the target block is found by
// galloping over the per-block last-doc metadata starting at the
// cursor's block — so a seek shortly after a skip stays O(1) block
// probes plus one in-block search, and the blocks in between are
// never decoded. In slice mode galloping search from the current
// position keeps a full DAAT merge linear in the shortest list rather
// than the longest.
func (it *Iterator) SeekGE(d corpus.DocID) bool {
	if it.cl != nil {
		return it.seekGEComp(d)
	}
	n := len(it.pl)
	if it.pos >= n {
		return false
	}
	it.probes++
	if it.cur >= d {
		return true
	}
	// Gallop: double the step from the current position until we
	// overshoot, then binary-search the bracketed window.
	lo, step := it.pos+1, 1
	hi := lo
	for hi < n && it.pl[hi].Doc < d {
		it.probes++
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > n {
		hi = n
	}
	// Invariant: postings in [0, lo) have Doc < d; [hi, n) have Doc >= d.
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		it.probes++
		if it.pl[mid].Doc < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.pos = lo
	if lo < n {
		it.cur = it.pl[lo].Doc
		return true
	}
	return false
}

// seekGEComp is the compressed-mode SeekGE: block-level search over
// the last-doc metadata from the current block, then one in-window
// search of the single decoded target block.
func (it *Iterator) seekGEComp(d corpus.DocID) bool {
	if it.pos >= it.n {
		return false
	}
	it.probes++
	if it.cur >= d {
		return true
	}
	it.probes++
	if it.cl.blockLast(it.blk) < d {
		// Target is past this block: gallop across the block last-doc
		// metadata starting at the next block, then binary-search the
		// bracketed range. No block in between is decoded.
		nb := it.cl.numBlocks()
		lo, step := it.blk+1, 1
		hi := lo
		for hi < nb && it.cl.blockLast(hi) < d {
			it.probes++
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > nb {
			hi = nb
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			it.probes++
			if it.cl.blockLast(mid) < d {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= nb {
			// Exhaust for good: park the block state past the end so a
			// later Next/NextWindow/SkipBlock cannot reload a mid-list
			// block and resurrect the cursor (slice mode stays
			// exhausted forever; the modes must agree).
			it.pos, it.blk, it.blkStart, it.blkLen = it.n, nb, it.n, 0
			return false
		}
		it.loadBlock(lo)
		it.probes++
		if it.cur >= d {
			return true // block entry already positioned the cursor
		}
	}
	// In-window gallop from the cursor (block entry resets it to the
	// block start), then binary search.
	win := it.docBuf[:it.blkLen]
	lo, step := it.pos-it.blkStart+1, 1
	hi := lo
	for hi < len(win) && win[hi] < d {
		it.probes++
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(win) {
		hi = len(win)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		it.probes++
		if win[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// The block's last doc is >= d, so lo always lands inside the
	// window.
	it.pos = it.blkStart + lo
	it.cur = win[lo]
	return true
}
