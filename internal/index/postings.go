package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"toppriv/internal/corpus"
)

// Block-compressed postings: the in-memory (and, via the codec,
// on-disk) representation of a postings list. Each run of up to
// BlockSize postings is stored as one frame-of-reference block —
// delta-encoded doc IDs and term frequencies, both reduced by a
// per-block minimum and bit-packed at a per-block width — so a list
// costs a few bits per posting instead of the 8 bytes of a raw
// Posting, and traversal decodes one block at a time into a small
// per-iterator buffer instead of materializing []Posting.
//
// Wire layout of one block (identical in memory and in the file):
//
//	uvarint baseDelta   firstDoc − prevLast (prevLast = −1 before the
//	                    first block, so baseDelta ≥ 1). First so a
//	                    block decodes against its predecessor.
//	uvarint count       postings in the block (1..BlockSize)
//	byte    gapBits     bit width of the packed gap residuals (≤ 31)
//	byte    tfBits      bit width of the packed tf residuals (≤ 31)
//	uvarint minGap−1    smallest doc gap (present only when count > 1)
//	uvarint minTF−1     smallest term frequency in the block
//	packed  count−1 gap residuals (gap_i − minGap), gapBits each, LSB-first
//	packed  count tf residuals (tf_i − minTF), tfBits each
//
// Build and Merge share one encoder, so every list they produce is
// BlockSize-aligned: full blocks and one shorter last block. Readers
// still accept shorter interior blocks — v9 files written while Merge
// copied blocks verbatim contain one at every part seam — because
// blocks are only ever walked in order, each header giving its own
// count and length: block boundaries are never derived by division,
// and no block is ever entered out of turn.
//
// Decoding dispatches on the frame width: the byte-rounded widths the
// encoder emits go through unrolled width-specialized kernels
// (kernels_gen.go, produced by gen_kernels.go), everything else —
// only foreign writers produce non-byte widths — through the generic
// bit extractors below.

//go:generate go run gen_kernels.go

// compList is one term's compressed postings: where its packed blocks
// lie in the index's payload slab (Index.data[off:end]), their posting
// count, and the list's last document (Iterator.LastDoc). Every
// consumer walks the blocks front to back — the iterator carries the
// next block's byte offset and the previous block's last doc from the
// block it just decoded — so no per-block index is kept. Sixteen bytes:
// DocFreq and LastDoc read the entry alone, never the payload.
type compList struct {
	off, end uint32
	n        int32
	lastDoc  corpus.DocID
}

// appendUvarint appends v as a uvarint.
func appendUvarint(data []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(data, buf[:binary.PutUvarint(buf[:], v)]...)
}

// appendPackedBits appends count values at the given width (≤ 31),
// LSB-first within each byte.
func appendPackedBits(data []byte, vals []uint32, width uint) []byte {
	if width == 0 {
		return data
	}
	var acc uint64
	var nbits uint
	for _, v := range vals {
		acc |= uint64(v) << nbits
		nbits += width
		for nbits >= 8 {
			data = append(data, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		data = append(data, byte(acc))
	}
	return data
}

// unpackBits decodes count width-bit values from data into out.
// len(data) must cover count*width bits; width ≤ 31.
func unpackBits(data []byte, count int, width uint, out []uint32) {
	if width == 0 {
		for i := 0; i < count; i++ {
			out[i] = 0
		}
		return
	}
	mask := uint32(1)<<width - 1
	var acc uint64
	var nbits uint
	pos := 0
	for i := 0; i < count; i++ {
		for nbits < width {
			acc |= uint64(data[pos]) << nbits
			pos++
			nbits += 8
		}
		out[i] = uint32(acc) & mask
		acc >>= width
		nbits -= width
	}
}

// packedLen returns the byte length of count width-bit values.
func packedLen(count int, width uint) int {
	return (count*int(width) + 7) / 8
}

// blockFrame returns the frame of reference of one block of up to
// BlockSize postings (sorted, strictly ascending docs, tfs ≥ 1): its
// smallest doc gap and term frequency, and the bit widths the residuals
// above them are packed at.
func blockFrame(pl []Posting) (minGap, minTF uint32, gapBits, tfBits uint) {
	minGap, minTF = math.MaxUint32, math.MaxUint32
	var maxGap, maxTF uint32
	for i := 1; i < len(pl); i++ {
		g := uint32(pl[i].Doc - pl[i-1].Doc)
		minGap, maxGap = min(minGap, g), max(maxGap, g)
	}
	for _, p := range pl {
		tf := uint32(p.TF)
		minTF, maxTF = min(minTF, tf), max(maxTF, tf)
	}
	if len(pl) > 1 {
		gapBits = uint(bits.Len32(maxGap - minGap))
	}
	tfBits = uint(bits.Len32(maxTF - minTF))
	// Round widths up to whole bytes: the format carries arbitrary bit
	// widths, but byte-aligned frames decode with plain loads instead
	// of shift-and-mask extraction — roughly 3× faster on the block
	// decode that every traversal pays — for a fraction of a byte per
	// posting. One-bit tf frames (ubiquitous tf=1 blocks with a rare
	// 2) stay bit-packed: at one bit the extraction is trivial and the
	// byte-rounding cost is 8×.
	gapBits = (gapBits + 7) &^ 7
	if tfBits > 1 {
		tfBits = (tfBits + 7) &^ 7
	}
	return minGap, minTF, gapBits, tfBits
}

// appendBlock encodes one block of up to BlockSize postings (sorted,
// strictly ascending docs, tfs ≥ 1) after a predecessor whose last doc
// was prevLast (−1 at list start).
func appendBlock(data []byte, prevLast corpus.DocID, pl []Posting) []byte {
	n := len(pl)
	minGap, minTF, gapBits, tfBits := blockFrame(pl)
	var gaps, tfs [BlockSize]uint32
	for i := 1; i < n; i++ {
		gaps[i-1] = uint32(pl[i].Doc-pl[i-1].Doc) - minGap
	}
	for i, p := range pl {
		tfs[i] = uint32(p.TF) - minTF
	}
	data = appendUvarint(data, uint64(pl[0].Doc-prevLast))
	data = appendUvarint(data, uint64(n))
	data = append(data, byte(gapBits), byte(tfBits))
	if n > 1 {
		data = appendUvarint(data, uint64(minGap-1))
	}
	data = appendUvarint(data, uint64(minTF-1))
	data = appendPackedBits(data, gaps[:n-1], gapBits)
	return appendPackedBits(data, tfs[:n], tfBits)
}

// appendBlocks encodes a sorted postings list as BlockSize-aligned
// blocks.
func appendBlocks(data []byte, pl []Posting) []byte {
	prevLast := corpus.DocID(-1)
	for start := 0; start < len(pl); start += BlockSize {
		end := min(start+BlockSize, len(pl))
		data = appendBlock(data, prevLast, pl[start:end])
		prevLast = pl[end-1].Doc
	}
	return data
}

// blocksLen returns the number of bytes appendBlocks encodes pl to,
// from each block's frame alone: what lets Builder.Index allocate its
// payload slab once, at exact size, before encoding into it.
func blocksLen(pl []Posting) int {
	size := 0
	prevLast := corpus.DocID(-1)
	for start := 0; start < len(pl); start += BlockSize {
		b := pl[start:min(start+BlockSize, len(pl))]
		minGap, minTF, gapBits, tfBits := blockFrame(b)
		size += uvarintLen(uint64(b[0].Doc-prevLast)) + uvarintLen(uint64(len(b))) + 2 + uvarintLen(uint64(minTF-1)) +
			packedLen(len(b)-1, gapBits) + packedLen(len(b), tfBits)
		if len(b) > 1 {
			size += uvarintLen(uint64(minGap - 1))
		}
		prevLast = b[len(b)-1].Doc
	}
	return size
}

// encodePostings compresses a sorted postings list — the one encoder
// behind Build and Merge — onto the end of slab, and returns the list's
// entry with the grown slab. An empty list takes no bytes, and its entry
// is the zero value.
func encodePostings(pl []Posting, slab []byte) (compList, []byte, error) {
	if len(pl) == 0 {
		return compList{}, slab, nil
	}
	off := len(slab)
	slab = appendBlocks(slab, pl)
	if len(slab) > math.MaxUint32 {
		return compList{}, nil, errSlabSize(len(slab))
	}
	return compList{off: uint32(off), end: uint32(len(slab)), n: int32(len(pl)), lastDoc: pl[len(pl)-1].Doc}, slab, nil
}

// exactCopy copies b into a new slice whose capacity is its length: a
// payload slab or a length table, kept for the index's life.
func exactCopy[T any](b []T) []T {
	out := make([]T, len(b))
	copy(out, b)
	return out
}

// errSlabSize reports a payload past what a list entry can address.
func errSlabSize(n int) error {
	return fmt.Errorf("index: %d bytes of postings, more than the %d one index addresses", n, uint64(math.MaxUint32))
}

// blockHeader is a parsed block header with absolute payload offsets.
type blockHeader struct {
	baseDelta uint64
	count     int
	gapBits   uint
	tfBits    uint
	minGap    uint64
	minTF     uint64
	gapsOff   int // offset of the packed gaps within data
	tfsOff    int
	end       int // offset just past the block
}

// parseBlockHeader parses the block starting at data[off:], validating
// every field and that the payload fits in data. It is the parser for
// bytes from outside (load, fuzz); iterators over accepted lists read
// headers with readBlockHeader.
func parseBlockHeader(data []byte, off int) (blockHeader, error) {
	var h blockHeader
	rd := func() (uint64, error) {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return 0, fmt.Errorf("index: block header: bad varint at %d", off)
		}
		off += k
		return v, nil
	}
	var err error
	if h.baseDelta, err = rd(); err != nil {
		return h, err
	}
	if h.baseDelta == 0 {
		return h, fmt.Errorf("index: block header: zero base delta")
	}
	cnt, err := rd()
	if err != nil {
		return h, err
	}
	if cnt == 0 || cnt > BlockSize {
		return h, fmt.Errorf("index: block header: count %d out of range", cnt)
	}
	h.count = int(cnt)
	if off+2 > len(data) {
		return h, fmt.Errorf("index: block header: truncated widths")
	}
	h.gapBits, h.tfBits = uint(data[off]), uint(data[off+1])
	off += 2
	if h.gapBits > 32 || h.tfBits > 32 {
		return h, fmt.Errorf("index: block header: widths %d/%d out of range", h.gapBits, h.tfBits)
	}
	if h.count > 1 {
		mg, err := rd()
		if err != nil {
			return h, err
		}
		h.minGap = mg + 1
	}
	mt, err := rd()
	if err != nil {
		return h, err
	}
	h.minTF = mt + 1
	h.gapsOff = off
	h.tfsOff = off + packedLen(h.count-1, h.gapBits)
	h.end = h.tfsOff + packedLen(h.count, h.tfBits)
	if h.end > len(data) {
		return h, fmt.Errorf("index: block payload: %d bytes past end", h.end-len(data))
	}
	return h, nil
}

// readBlockHeader reads the header of the block at data[off:] without
// validating it — the traversal-time counterpart of parseBlockHeader,
// for lists that parser has already accepted (walkBlocks at load) or
// that this package encoded itself (encodePostings, behind Build and
// Merge).
// On such a block the two return the same header; on anything else
// this one returns garbage or panics on a slice bound.
func readBlockHeader(data []byte, off int) blockHeader {
	var h blockHeader
	var k int
	h.baseDelta, k = binary.Uvarint(data[off:])
	off += k
	cnt, k := binary.Uvarint(data[off:])
	off += k
	h.count = int(cnt)
	h.gapBits, h.tfBits = uint(data[off]), uint(data[off+1])
	off += 2
	if h.count > 1 {
		mg, k := binary.Uvarint(data[off:])
		off += k
		h.minGap = mg + 1
	}
	mt, k := binary.Uvarint(data[off:])
	off += k
	h.minTF = mt + 1
	h.gapsOff = off
	h.tfsOff = off + packedLen(h.count-1, h.gapBits)
	h.end = h.tfsOff + packedLen(h.count, h.tfBits)
	return h
}

// decodeBlockDocs parses the header of the block at byte offset off of
// a list's payload data, whose predecessor's last doc was prevLast (−1
// for the first block),
// and decodes its doc IDs into out — one fused word-at-a-time
// unpack-and-prefix-sum pass. The returned header lets the caller
// decode the tf half later without reparsing, and its end is the next
// block's offset.
func decodeBlockDocs(data []byte, off int, prevLast corpus.DocID, out *[BlockSize]corpus.DocID) blockHeader {
	h := readBlockHeader(data, off)
	d := prevLast + corpus.DocID(h.baseDelta)
	out[0] = d
	n := h.count - 1
	if n == 0 {
		return h
	}
	minGap := corpus.DocID(h.minGap)
	if h.gapBits == 0 {
		for i := 1; i <= n; i++ {
			d += minGap
			out[i] = d
		}
		return h
	}
	decodeGaps(data[h.gapsOff:h.tfsOff], n, h.gapBits, minGap, d, out[1:1+n])
	return h
}

// decodeGaps decodes n width-bit gap residuals (width 1..32) into out
// as running doc IDs chained from d: the byte-rounded widths the
// encoder emits dispatch to an unrolled kernel, everything else to the
// generic extractor.
func decodeGaps(src []byte, n int, width uint, minGap, d corpus.DocID, out []corpus.DocID) {
	if k := gapKernels[width]; k != nil {
		k(src, n, minGap, d, out)
		return
	}
	unpackGapsGeneric(src, n, width, minGap, d, out)
}

// unpackGapsGeneric extracts n width-bit gap residuals by absolute bit
// position — one unaligned word load per value; width ≤ 32 plus a
// sub-byte shift ≤ 7 always fits in 64 bits — fusing in the prefix sum
// with direct slice writes. Only the final values whose load would run
// past the payload fall back to a byte gather.
func unpackGapsGeneric(src []byte, n int, width uint, minGap, d corpus.DocID, out []corpus.DocID) {
	mask := uint32(uint64(1)<<width - 1)
	bulk := len(src) - 8
	bitPos := 0
	out = out[:n]
	for i := range out {
		byteIdx := bitPos >> 3
		var v uint32
		if byteIdx <= bulk {
			v = uint32(binary.LittleEndian.Uint64(src[byteIdx:])>>(uint(bitPos)&7)) & mask
		} else {
			v = uint32(gatherTail(src, byteIdx)>>(uint(bitPos)&7)) & mask
		}
		bitPos += int(width)
		d += minGap + corpus.DocID(v)
		out[i] = d
	}
}

// unpackTFsGeneric is unpackGapsGeneric's tf-side twin: direct slice
// writes offset by the block minimum, no prefix sum.
func unpackTFsGeneric(src []byte, n int, width uint, minTF int32, out []int32) {
	mask := uint32(uint64(1)<<width - 1)
	bulk := len(src) - 8
	bitPos := 0
	out = out[:n]
	for i := range out {
		byteIdx := bitPos >> 3
		var v uint32
		if byteIdx <= bulk {
			v = uint32(binary.LittleEndian.Uint64(src[byteIdx:])>>(uint(bitPos)&7)) & mask
		} else {
			v = uint32(gatherTail(src, byteIdx)>>(uint(bitPos)&7)) & mask
		}
		bitPos += int(width)
		out[i] = minTF + int32(v)
	}
}

// gatherTail assembles src[byteIdx:] into one little-endian word — the
// end-of-payload fallback for the generic extractors' unaligned loads.
func gatherTail(src []byte, byteIdx int) uint64 {
	var w uint64
	for k, shift := byteIdx, uint(0); k < len(src); k++ {
		w |= uint64(src[k]) << shift
		shift += 8
	}
	return w
}

// decodeBlockTFs decodes the tf half of a block whose header was
// already parsed by decodeBlockDocs.
func decodeBlockTFs(data []byte, h blockHeader, out *[BlockSize]int32) {
	minTF := int32(h.minTF)
	if h.tfBits == 0 {
		for i := 0; i < h.count; i++ {
			out[i] = minTF
		}
		return
	}
	decodeTFs(data[h.tfsOff:h.end], h.count, h.tfBits, minTF, out[:h.count])
}

// decodeTFs decodes n width-bit tf residuals (width 1..32) into out,
// offset by the block minimum — kernel dispatch with generic fallback,
// mirroring decodeGaps.
func decodeTFs(src []byte, n int, width uint, minTF int32, out []int32) {
	if k := tfKernels[width]; k != nil {
		k(src, n, minTF, out)
		return
	}
	unpackTFsGeneric(src, n, width, minTF, out)
}

// checkListWire checks a list's wire data against its posting count n
// and stored last doc: it walks the block headers and, with
// verifyPayload, fully decodes every block once to verify the payload —
// strictly ascending doc IDs inside [0, numDocs), positive frequencies,
// a final doc equal to lastDoc — so corrupt or truncated input is
// rejected here with an error and iterators over accepted lists can
// decode unchecked.
//
// The mapped open path (OpenMapped) accepts lists on structural checks
// alone — walking every self-describing block header; the caller
// range-checks lastDoc — without faulting in and decoding every payload
// page. Block headers and counts are still fully validated, so decoding
// stays in-bounds; a corrupt payload can only yield wrong posting values
// (a trade the mapped path documents: segment files are written and
// fsynced by this process).
func checkListWire(n int, data []byte, lastDoc corpus.DocID, numDocs int, verifyPayload bool) error {
	if n == 0 {
		if len(data) != 0 {
			return fmt.Errorf("index: empty list with %d data bytes", len(data))
		}
		return nil
	}
	var verify func(blockHeader) error
	d := int64(-1)
	if verifyPayload {
		verify = func(h blockHeader) error {
			var resid [BlockSize]uint32
			unpackBits(data[h.gapsOff:h.tfsOff], h.count-1, h.gapBits, resid[:])
			d += int64(h.baseDelta)
			for i := 0; i < h.count; i++ {
				if i > 0 {
					d += int64(h.minGap) + int64(resid[i-1])
				}
				if d >= int64(numDocs) || d > math.MaxInt32 {
					return fmt.Errorf("index: doc %d out of range", d)
				}
			}
			unpackBits(data[h.tfsOff:h.end], h.count, h.tfBits, resid[:])
			for i := 0; i < h.count; i++ {
				if h.minTF+uint64(resid[i]) > math.MaxInt32 {
					return fmt.Errorf("index: tf overflow")
				}
			}
			return nil
		}
	}
	if err := walkBlocks(data, n, verify); err != nil {
		return err
	}
	if verifyPayload && d != int64(lastDoc) {
		return fmt.Errorf("index: last doc %d, stored %d", d, lastDoc)
	}
	return nil
}

// walkBlocks parses the block headers (no payload decode) of a list of
// n postings in order, checking that their counts sum to n and that
// they tile data exactly. visit, when non-nil, is handed each header
// as it is accepted.
func walkBlocks(data []byte, n int, visit func(blockHeader) error) error {
	off, start := 0, 0
	for start < n {
		h, err := parseBlockHeader(data, off)
		if err != nil {
			return err
		}
		if start+h.count > n {
			return fmt.Errorf("index: blocks hold more than %d postings", n)
		}
		if visit != nil {
			if err := visit(h); err != nil {
				return err
			}
		}
		off, start = h.end, start+h.count
	}
	if off != len(data) {
		return fmt.Errorf("index: %d trailing bytes after last block", len(data)-off)
	}
	return nil
}
