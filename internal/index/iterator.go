package index

import "toppriv/internal/corpus"

// Iterator is a cursor over one term's postings list. A fresh iterator
// is positioned on the first posting; Valid reports whether the cursor
// is on a posting, and it only moves forward: Next by one posting,
// NextWindow by one block. The zero value is an exhausted iterator over
// an empty list.
//
// Iterators come in two modes sharing one API: over a plain
// PostingList slice (the live memtable, tests) and over a compressed
// list (every *Index), where postings are decoded block-at-a-time
// into the iterator's own small buffer — doc IDs when a block is
// entered, term frequencies only if TF is actually read — so
// traversal never materializes []Posting. The buffers live inside the
// struct; hot paths hold iterators in pooled slots and reposition them
// in place (Index IterInto, ResetList), so steady-state queries
// allocate nothing and never clear or copy the kilobyte of buffer.
//
// Both modes present the list in blocks of at most BlockSize postings
// (the compressed blocks themselves; consecutive runs of a slice):
// Window hands out the current block's postings in bulk, which is how
// every scan consumes a list.
type Iterator struct {
	pl PostingList // slice mode (nil in compressed mode)
	// data is the list's packed blocks in compressed mode (nil in slice
	// mode), last its last document.
	data []byte
	last corpus.DocID
	pos  int          // global posting ordinal
	n    int          // total postings
	cur  corpus.DocID // current posting's doc; maintained by every move

	// Compressed-mode decode state: the current block's first ordinal,
	// its parsed header (hdr.end is the next block's byte offset), and
	// its decoded window, whose last doc is the next block's base.
	// tfOK marks the tf half of the window decoded.
	blkStart int
	blkLen   int
	tfOK     bool
	hdr      blockHeader
	// decodes counts compressed blocks decoded since the iterator was
	// (re)positioned. Always 0 in slice mode.
	decodes int
	docBuf  [BlockSize]corpus.DocID
	tfBuf   [BlockSize]int32
}

// ResetList repositions the iterator over a plain postings slice
// without touching the decode buffers.
func (it *Iterator) ResetList(pl PostingList) {
	it.pl, it.data = pl, nil
	it.pos, it.n, it.decodes = 0, len(pl), 0
	if it.n > 0 {
		it.cur = pl[0].Doc
	}
}

// reset repositions the iterator over compressed list cl, whose
// payload lies in slab, decoding only the first block's doc IDs. An
// empty list leaves it exhausted.
func (it *Iterator) reset(slab []byte, cl compList) {
	if cl.n == 0 {
		it.ResetList(nil)
		return
	}
	it.pl, it.data, it.last = nil, slab[cl.off:cl.end], cl.lastDoc
	it.pos, it.n, it.decodes = 0, int(cl.n), 0
	it.blkStart, it.blkLen = 0, 0
	it.loadBlock(0, -1)
}

// loadBlock decodes the doc IDs of the block at byte offset off (its
// predecessor's last doc prevLast) from wherever the payload lies
// (heap or mapping) and positions the cursor on its first posting. The
// tf half is left for the first read.
func (it *Iterator) loadBlock(off int, prevLast corpus.DocID) {
	it.blkStart += it.blkLen
	it.hdr = decodeBlockDocs(it.data, off, prevLast, &it.docBuf)
	it.decodes++
	it.blkLen = it.hdr.count
	it.tfOK = false
	it.pos = it.blkStart
	it.cur = it.docBuf[0]
}

// nextBlock enters the block after the current one, reporting whether
// there is one.
func (it *Iterator) nextBlock() bool {
	if it.blkStart+it.blkLen >= it.n {
		it.pos = it.n
		return false
	}
	it.loadBlock(it.hdr.end, it.docBuf[it.blkLen-1])
	return true
}

// Len returns the total number of postings in the underlying list.
func (it *Iterator) Len() int { return it.n }

// LastDoc returns the last document of the whole list — available
// without decoding in compressed mode. The list must be non-empty.
func (it *Iterator) LastDoc() corpus.DocID {
	if it.data != nil {
		return it.last
	}
	return it.pl[it.n-1].Doc
}

// Valid reports whether the iterator is positioned on a posting.
func (it *Iterator) Valid() bool { return it.pos < it.n }

// Doc returns the current posting's document ID. Valid must be true.
func (it *Iterator) Doc() corpus.DocID { return it.cur }

// TF returns the current posting's term frequency. Valid must be true.
// In compressed mode the first TF read of a block decodes the block's
// tf payload; a block whose documents alone are read never pays it.
func (it *Iterator) TF() int32 {
	if it.data != nil {
		if !it.tfOK {
			decodeBlockTFs(it.data, it.hdr, &it.tfBuf)
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
	if it.data == nil {
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
	return it.nextBlock()
}

// Window returns the postings from the cursor through the end of the
// current decoded block as parallel doc/tf slices — the bulk surface
// the flat scan, the norm pass and Merge consume, one tight loop
// per block instead of three method calls per posting. In slice mode the
// next run of up to BlockSize postings is staged through the same
// buffers. The slices are valid until the iterator moves; advance
// with NextWindow. Valid must be true.
func (it *Iterator) Window() (docs []corpus.DocID, tfs []int32) {
	if it.data != nil {
		if !it.tfOK {
			decodeBlockTFs(it.data, it.hdr, &it.tfBuf)
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
	if it.data != nil {
		return it.nextBlock()
	}
	it.pos += BlockSize
	if it.pos >= it.n {
		it.pos = it.n
		return false
	}
	it.cur = it.pl[it.pos].Doc
	return true
}

// BlocksDecoded returns how many compressed blocks this iterator
// decoded since it was (re)positioned — 0 in slice mode, where nothing
// is compressed.
func (it *Iterator) BlocksDecoded() int { return it.decodes }
