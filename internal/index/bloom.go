package index

import (
	"encoding/binary"
	"fmt"

	"toppriv/internal/textproc"
)

// TermBloom is a per-segment bloom filter over the dictionary's
// surface terms: a segment whose bloom rejects every term of a request
// cannot contribute a hit (an absent term has no postings, and a scan
// only ever scores documents that appear in some queried list). Nothing
// on the query path probes it any more — the segment store scans every
// part with one engine, and an absent term is an empty list the scan
// steps over — so the filter is format-only: TPIX v8 persists it, and it
// leaves with the next format bump. False positives only cost a wasted
// probe, never a wrong result.
//
// Sizing is fixed at build time: bloomBitsPerTerm bits per dictionary
// entry with bloomHashes probes per term, giving a theoretical false
// positive rate under 1% — segment skipping keeps nearly all of its
// benefit while the filter stays ~1.25 bytes per term, a rounding
// error next to the dictionary itself. Hashing is FNV-1a 64 split
// into a double-hashing pair, so the filter is deterministic across
// builds and platforms and the TPIX codec can persist it verbatim.
const (
	bloomBitsPerTerm = 10
	bloomHashes      = 7
	// maxBloomHashes caps the persisted probe count: more probes than
	// this buys nothing and signals a corrupt header.
	maxBloomHashes = 16
)

// TermBloom's zero value (and any filter with no bits) rejects every
// term — correct for an empty dictionary.
type TermBloom struct {
	k    uint32
	bits []uint64
}

// NewTermBloom returns a filter sized for n terms.
func NewTermBloom(n int) *TermBloom {
	if n <= 0 {
		return &TermBloom{}
	}
	words := (n*bloomBitsPerTerm + 63) / 64
	return &TermBloom{k: bloomHashes, bits: make([]uint64, words)}
}

// buildVocabBloom derives a segment bloom from a dictionary — what
// Build-time sealing produces.
func buildVocabBloom(v *textproc.Vocab) *TermBloom {
	b := NewTermBloom(v.Size())
	for t := 0; t < v.Size(); t++ {
		b.Add(v.Term(textproc.TermID(t)))
	}
	return b
}

// fnv64a is FNV-1a 64 over the term bytes (inlined rather than
// hash/fnv so Add and MayContain stay allocation-free).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Add records a term.
func (b *TermBloom) Add(term string) {
	if len(b.bits) == 0 {
		return
	}
	h := fnv64a(term)
	h1, h2 := h, h>>32|1 // odd second hash so probe strides never collapse
	m := uint64(len(b.bits)) * 64
	for i := uint64(0); i < uint64(b.k); i++ {
		bit := (h1 + i*h2) % m
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether term was possibly added. False means
// definitely absent; true may be a false positive. Nil and empty
// filters reject everything.
func (b *TermBloom) MayContain(term string) bool {
	if b == nil || len(b.bits) == 0 {
		return false
	}
	h := fnv64a(term)
	h1, h2 := h, h>>32|1
	m := uint64(len(b.bits)) * 64
	for i := uint64(0); i < uint64(b.k); i++ {
		bit := (h1 + i*h2) % m
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the filter's bit-array footprint.
func (b *TermBloom) SizeBytes() int64 {
	if b == nil {
		return 0
	}
	return 8 * int64(len(b.bits))
}

// readBloomWire reads the trailing bloom section: uvarint probe
// count, uvarint word count, then the bit words little-endian. The
// word count is validated against the dictionary size so a corrupt
// header cannot demand an implausible allocation, and an empty filter
// is only accepted for an empty dictionary (a sealed segment with
// terms always persists a real filter).
func readBloomWire(r tpixReader, numTerms uint64) (*TermBloom, error) {
	k, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("index: bloom probes: %w", err)
	}
	words, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("index: bloom words: %w", err)
	}
	if k == 0 || words == 0 {
		if k != 0 || words != 0 || numTerms > 0 {
			return nil, fmt.Errorf("index: empty bloom (k=%d, words=%d) for %d terms", k, words, numTerms)
		}
		return &TermBloom{}, nil
	}
	if k > maxBloomHashes {
		return nil, fmt.Errorf("index: bloom probe count %d exceeds %d", k, maxBloomHashes)
	}
	if max := 4 * (numTerms*bloomBitsPerTerm/64 + 64); words > max {
		return nil, fmt.Errorf("index: bloom word count %d implausible for %d terms", words, numTerms)
	}
	buf, err := r.Bytes(8 * words)
	if err != nil {
		return nil, fmt.Errorf("index: bloom bits: %w", err)
	}
	bits := make([]uint64, words)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return &TermBloom{k: uint32(k), bits: bits}, nil
}
