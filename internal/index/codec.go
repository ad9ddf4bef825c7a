package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// The on-disk format is deliberately simple and compact:
//
//	magic "TPIX" | uint32 version (9)
//	uvarint numDocs
//	uvarint numTerms
//	per term: uvarint(len(term)) term-bytes
//	          uvarint(listLen)
//	          non-empty lists only: uvarint(dataLen) followed by the
//	              block-compressed postings bytes exactly as held in
//	              memory (see postings.go for the per-block layout),
//	              then uvarint lastDoc, the list's last document
//	per doc:  uvarint docLen (≤ MaxInt32)
//
// The block-compressed postings are written verbatim — the file is a
// memory image of the lists, each exactly {listLen, lastDoc, bytes},
// so writing does no re-encoding and loading does no re-compression.
// Loading through Read walks every block header, decodes every payload
// and checks the final document against the stored last doc, and
// rejects corrupt or truncated input with an error, never a panic.
//
// There is one version and one reader. A file of any other version is
// rejected with an error naming both versions; no deployed index files
// exist, and an index is rebuilt from its documents in seconds.
//
// OpenMapped (mapped.go) reads the same format through a zero-copy
// slice reader over the mapped file: the header, the dictionary, every
// block header and every stored last doc are validated exactly as
// above, but the packed block payloads stay as views into the mapping
// and skip the per-posting decode validation — faulting every payload
// page at open would defeat disk residency. Payload decoding is
// bounds-checked at traversal time, so a corrupt payload yields wrong
// postings values, never memory unsafety.

const (
	codecMagic   = "TPIX"
	codecVersion = 9
)

// tpixReader is the byte source the codec decodes from: a buffered
// stream (Read) or an in-memory image (OpenMapped). payload reads the
// next n bytes, one list's packed blocks, and returns them with their
// offset in the reader's slab, which holds every list read so far. The
// stream reader copies them onto the end of its slab, in bounded chunks
// so a lying length cannot allocate past what the stream actually holds;
// the image reader's slab is the image itself, so the offset is the
// file's and nothing is copied.
type tpixReader interface {
	io.ByteReader
	io.Reader
	payload(n uint64) (data []byte, off int, err error)
	// slab returns the slab at its exact size, once every list is read.
	slab() []byte
}

// streamReader adapts a bufio.Reader to tpixReader.
type streamReader struct {
	*bufio.Reader
	data []byte
}

func (r *streamReader) payload(n uint64) ([]byte, int, error) {
	const chunk = 1 << 20
	off := len(r.data)
	for remaining := n; remaining > 0; {
		step := min(remaining, chunk)
		start := len(r.data)
		r.data = append(r.data, make([]byte, step)...)
		if _, err := io.ReadFull(r.Reader, r.data[start:]); err != nil {
			return nil, 0, err
		}
		remaining -= step
	}
	return r.data[off:], off, nil
}

func (r *streamReader) slab() []byte { return exactCopy(r.data) }

// sliceReader reads from one in-memory image — the mapped file. Lists'
// payloads stay where they lie in the image, so the decoded index
// addresses the mapping, not a copy.
type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) ReadByte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *sliceReader) payload(n uint64) ([]byte, int, error) {
	if n > uint64(len(r.data)-r.off) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	off := r.off
	r.off += int(n)
	return r.data[off:r.off], off, nil
}

func (r *sliceReader) slab() []byte { return r.data }

// WriteTo serializes the index. It returns the number of bytes written.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	buf := make([]byte, binary.MaxVarintLen64)
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf, v)
		_, err := cw.Write(buf[:n])
		return err
	}
	if _, err := cw.Write([]byte(codecMagic)); err != nil {
		return cw.n, err
	}
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], codecVersion)
	if _, err := cw.Write(ver[:]); err != nil {
		return cw.n, err
	}
	if err := writeUvarint(uint64(x.numDocs)); err != nil {
		return cw.n, err
	}
	if err := writeUvarint(uint64(len(x.lists))); err != nil {
		return cw.n, err
	}
	for id := range x.lists {
		term := x.vocab.Term(textproc.TermID(id))
		if err := writeUvarint(uint64(len(term))); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write([]byte(term)); err != nil {
			return cw.n, err
		}
		cl := &x.lists[id]
		if err := writeUvarint(uint64(cl.n)); err != nil {
			return cw.n, err
		}
		if cl.n == 0 {
			continue
		}
		if err := writeUvarint(uint64(cl.end - cl.off)); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(x.data[cl.off:cl.end]); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(cl.lastDoc)); err != nil {
			return cw.n, err
		}
	}
	for _, dl := range x.docLen {
		if err := writeUvarint(uint64(dl)); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// Read deserializes an index written by WriteTo, fully validating
// every block payload.
func Read(r io.Reader) (*Index, error) {
	return readIndex(&streamReader{Reader: bufio.NewReader(r)}, true)
}

// readIndex decodes one TPIX image from r. verifyPayload selects full
// per-posting validation of the packed block payloads (the stream
// path) versus structural-only validation of block headers and last
// docs (the mapped path — see the format comment above).
func readIndex(r tpixReader, verifyPayload bool) (*Index, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("index: read magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("index: bad magic %q", magic)
	}
	var ver [4]byte
	if _, err := io.ReadFull(r, ver[:]); err != nil {
		return nil, fmt.Errorf("index: read version: %w", err)
	}
	if version := binary.LittleEndian.Uint32(ver[:]); version != codecVersion {
		return nil, fmt.Errorf("index: TPIX version %d: this build reads version %d only; rebuild the index from its documents", version, codecVersion)
	}
	numDocs, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("index: read numDocs: %w", err)
	}
	if numDocs > math.MaxInt32 {
		return nil, fmt.Errorf("index: numDocs %d out of range", numDocs)
	}
	numTerms, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("index: read numTerms: %w", err)
	}
	x := &Index{
		vocab:   textproc.NewVocab(),
		numDocs: int(numDocs),
	}
	// Pre-sizing from untrusted counts is capped: a corrupt header
	// must not allocate gigabytes before the (bounded) stream runs
	// out. Slices grow organically past the cap.
	const preallocCap = 1 << 16
	prealloc := int(numTerms)
	if prealloc > preallocCap {
		prealloc = preallocCap
	}
	x.lists = make([]compList, 0, prealloc)
	termBuf := make([]byte, 0, 64)
	for t := uint64(0); t < numTerms; t++ {
		tl, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("index: term %d length: %w", t, err)
		}
		if tl > 1<<20 {
			return nil, fmt.Errorf("index: term %d length %d out of range", t, tl)
		}
		if cap(termBuf) < int(tl) {
			termBuf = make([]byte, tl)
		}
		termBuf = termBuf[:tl]
		if _, err := io.ReadFull(r, termBuf); err != nil {
			return nil, fmt.Errorf("index: term %d bytes: %w", t, err)
		}
		if id := x.vocab.AddBytes(termBuf); id != textproc.TermID(t) {
			return nil, fmt.Errorf("index: term %d %q repeats term %d", t, termBuf, id)
		}
		ll, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("index: term %d list length: %w", t, err)
		}
		if ll > numDocs {
			// A list holds at most one posting per document.
			return nil, fmt.Errorf("index: term %d list length %d exceeds %d docs", t, ll, numDocs)
		}
		if err := x.readCompList(r, t, ll, int(numDocs), verifyPayload); err != nil {
			return nil, err
		}
	}
	dlPrealloc := int(numDocs)
	if dlPrealloc > preallocCap {
		dlPrealloc = preallocCap
	}
	x.docLen = make([]int32, 0, dlPrealloc)
	for d := uint64(0); d < numDocs; d++ {
		dl, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("index: doc %d length: %w", d, err)
		}
		if dl > math.MaxInt32 {
			// numDocs's bound: a length past it cannot come from a real
			// document, and would drive AvgDocLen — and with it the BM25
			// length factor — negative.
			return nil, fmt.Errorf("index: doc %d length %d out of range", d, dl)
		}
		x.docLen = append(x.docLen, int32(dl))
		x.totalLen += int(dl)
	}
	x.data = r.slab()
	return x, nil
}

// readCompList reads one term's block-compressed list and last doc.
// verifyPayload additionally decodes every block to check the packed
// postings themselves (see readIndex).
func (x *Index) readCompList(r tpixReader, t, ll uint64, numDocs int, verifyPayload bool) error {
	if ll == 0 {
		x.lists = append(x.lists, compList{})
		return nil
	}
	dataLen, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("index: term %d data length: %w", t, err)
	}
	// Every posting costs at least a bit somewhere and every block at
	// least ~5 bytes; 16 bytes per posting is a generous ceiling that
	// rejects corrupt lengths early, and the reader's Bytes keeps even
	// an accepted-but-lying length from allocating past what the
	// source actually holds.
	if dataLen > 16*ll+64 {
		return fmt.Errorf("index: term %d data length %d implausible for %d postings", t, dataLen, ll)
	}
	data, off, err := r.payload(dataLen)
	if err != nil {
		return fmt.Errorf("index: term %d data: %w", t, err)
	}
	if end := off + len(data); end > math.MaxUint32 {
		return fmt.Errorf("index: term %d: %w", t, errSlabSize(end))
	}
	last, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("index: term %d last doc: %w", t, err)
	}
	if last >= uint64(numDocs) {
		return fmt.Errorf("index: term %d last doc %d out of range", t, last)
	}
	if err := checkListWire(int(ll), data, corpus.DocID(last), numDocs, verifyPayload); err != nil {
		return fmt.Errorf("index: term %d: %w", t, err)
	}
	x.lists = append(x.lists, compList{off: uint32(off), end: uint32(off + len(data)), n: int32(ll), lastDoc: corpus.DocID(last)})
	return nil
}

// SizeBytes returns the serialized size of the index without writing it
// anywhere (Figure 6, the PIR table, and every stats scrape): the sum of
// the lengths WriteTo emits, from the lists' counts and payload lengths,
// the terms' lengths and the document lengths, with no payload byte
// read. The index is immutable, so the sum is taken on first use only.
func (x *Index) SizeBytes() int64 {
	x.sizeOnce.Do(func() {
		n := len(codecMagic) + 4 + uvarintLen(uint64(x.numDocs)) + uvarintLen(uint64(len(x.lists)))
		for id := range x.lists {
			term := x.vocab.Term(textproc.TermID(id))
			cl := &x.lists[id]
			n += uvarintLen(uint64(len(term))) + len(term) + uvarintLen(uint64(cl.n))
			if cl.n > 0 {
				size := int(cl.end - cl.off)
				n += uvarintLen(uint64(size)) + size + uvarintLen(uint64(cl.lastDoc))
			}
		}
		for _, dl := range x.docLen {
			n += uvarintLen(uint64(dl))
		}
		x.size = int64(n)
	})
	return x.size
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
