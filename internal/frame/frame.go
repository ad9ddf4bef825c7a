// Package frame is the one framing and document codec of everything
// this repository checksums: the cluster's journal, snapshot, cycle
// stream, mutation and ack frames, a saved segment's documents file,
// and the client's LDA model file.
//
// A frame is a uint32 little-endian payload length, a uint32
// little-endian CRC-32 (IEEE) over the length bytes followed by the
// payload, then the payload. Covering the length field by the checksum
// means a corrupted length can never silently re-frame a stream: any
// complete frame that fails its CRC is rejected. A file of frames opens
// with a magic line (Walk). A payload is shortest-form uvarints, raw
// bytes and raw float64 bits (Reader); a document is always one record
// (AppendDoc, Reader.Doc).
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"toppriv/internal/corpus"
)

// Header is the size of a frame's length and checksum fields.
const Header = 8

var (
	// ErrTorn: the input ends before the frame does, or the length
	// field is beyond the caller's bound — which is treated as corruption
	// of the length, never as an allocation request, and cannot be told
	// from a cut.
	ErrTorn = errors.New("frame cut short or longer than its bound")
	// ErrChecksum: the frame is all there and fails its CRC.
	ErrChecksum = errors.New("frame fails its checksum")
)

func sum(frame []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(frame[:4]), crc32.IEEETable, frame[Header:])
}

// Seal fills in the header of frame, whose first Header bytes are
// reserved and whose remainder is the payload.
func Seal(frame []byte) {
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-Header))
	binary.LittleEndian.PutUint32(frame[4:8], sum(frame))
}

// Open checks the frame at the head of b and returns its payload
// (aliasing b) and its whole size.
func Open(b []byte, maxPayload uint32) (payload []byte, size int, err error) {
	if len(b) < Header {
		return nil, 0, ErrTorn
	}
	length := binary.LittleEndian.Uint32(b[:4])
	if length > maxPayload || int64(length) > int64(len(b)-Header) {
		return nil, 0, ErrTorn
	}
	size = Header + int(length)
	if sum(b[:size]) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, ErrChecksum
	}
	return b[Header:size], size, nil
}

// Walk checks that data opens with magic and hands fn the payload of
// each whole frame after it, with its offset, and returns the offset
// past the last one. Bytes beyond it are a frame cut short by EOF, or
// one whose corrupted length points past EOF or beyond maxPayload: the
// two cannot be told apart. A whole frame that fails its checksum is
// corruption, and an error wrapping ErrChecksum.
func Walk(data []byte, magic string, maxPayload uint32, fn func(off int64, payload []byte) error) (int64, error) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return 0, errors.New("bad magic header")
	}
	off := int64(len(magic))
	for off < int64(len(data)) {
		payload, size, err := Open(data[off:], maxPayload)
		if errors.Is(err, ErrTorn) {
			break
		}
		if err != nil {
			// Bit rot or tampering: never read past it, never drop it
			// silently.
			return 0, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		if err := fn(off, payload); err != nil {
			return 0, err
		}
		off += int64(size)
	}
	return off, nil
}

// Reader consumes a payload field by field; the first malformed field
// sticks in Err and every later read returns zero.
type Reader struct {
	B   []byte
	Err error
	// What names the payload in errors: "cluster: batch frame"…
	What string
}

// OpenReader checks a frame that must be the whole of its input.
func OpenReader(b []byte, maxPayload uint32, what string) (Reader, error) {
	payload, size, err := Open(b, maxPayload)
	if err != nil {
		return Reader{}, fmt.Errorf("%s: %w", what, err)
	}
	if size != len(b) {
		return Reader{}, fmt.Errorf("%s: %d bytes after the frame", what, len(b)-size)
	}
	return Reader{B: payload, What: what}, nil
}

// Failf records the first malformed field.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%s: %s", r.What, fmt.Sprintf(format, args...))
	}
}

// U64 reads one shortest-form uvarint.
func (r *Reader) U64() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.B)
	if n <= 0 || (n > 1 && r.B[n-1] == 0) {
		r.Failf("truncated, padded or oversized integer")
		return 0
	}
	r.B = r.B[n:]
	return v
}

// Num reads one shortest-form uvarint that fits an int.
func (r *Reader) Num() int {
	v := r.U64()
	if v > math.MaxInt {
		r.Failf("truncated, padded or oversized integer")
		return 0
	}
	return int(v)
}

// Gid reads a global document ID: a uvarint within int32.
func (r *Reader) Gid() corpus.DocID {
	v := r.U64()
	if v > math.MaxInt32 {
		r.Failf("gid %d beyond int32", v)
		return 0
	}
	return corpus.DocID(v)
}

// Str reads a length-prefixed string into an allocation of its own.
func (r *Reader) Str() string {
	n := r.Count(1)
	s := string(r.B[:n])
	r.B = r.B[n:]
	return s
}

// Float reads a float64 from the 8 little-endian bytes of its bits;
// what names it in the error when fewer are left: "score", "alpha"…
func (r *Reader) Float(what string) float64 {
	if r.Err == nil && len(r.B) < 8 {
		r.Failf("truncated %s", what)
	}
	if r.Err != nil {
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.B)
	r.B = r.B[8:]
	return math.Float64frombits(bits)
}

// Count reads the number of elements that follow, each at least min
// bytes long, and refuses one the remaining bytes cannot hold — so a
// claimed count never sizes an allocation the input did not pay for.
func (r *Reader) Count(min int) int {
	n := r.Num()
	if r.Err == nil && n > len(r.B)/min {
		r.Failf("count %d exceeds the %d bytes left", n, len(r.B))
		return 0
	}
	return n
}

// End reports the first error, or payload bytes nothing consumed.
func (r *Reader) End() error {
	if r.Err == nil && len(r.B) != 0 {
		r.Failf("%d unread payload bytes", len(r.B))
	}
	return r.Err
}

// DocMin is the least a document record takes: a gid byte and two
// length bytes.
const DocMin = 3

// AppendDoc appends d's record: uvarint gid, then the title and the
// text, each a uvarint length and its bytes, unescaped. Nothing else of
// a document is kept.
func AppendDoc(dst []byte, d *corpus.Document) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.ID))
	dst = binary.AppendUvarint(dst, uint64(len(d.Title)))
	dst = append(dst, d.Title...)
	dst = binary.AppendUvarint(dst, uint64(len(d.Text)))
	return append(dst, d.Text...)
}

// Doc reads a document record. Its title and text come back in
// allocations of their own, so a document kept holds only its own
// bytes.
func (r *Reader) Doc() corpus.Document {
	return corpus.Document{ID: r.Gid(), Title: r.Str(), Text: r.Str()}
}

// WriteFileAtomic replaces dir/name with data: written to a temporary
// file and fsynced, renamed over name, and the rename made durable by
// syncing dir. A crash at any point leaves either the old file or the
// new one, never a torn one.
func WriteFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the renames into it durable.
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
