package index

import "fmt"

// OpenMapped opens a sealed TPIX file as a disk-resident index: the
// file is memory-mapped (on Linux; elsewhere it is read into the heap
// — see mmap_fallback.go) and decoded through the zero-copy slice
// reader, so every list's packed payload is a view into the mapping
// and pages in on traversal instead of living on the heap. Header,
// dictionary, block headers and last docs are eagerly decoded and
// validated exactly as Read does; only the per-posting payload
// verification is skipped (see the codec format comment). The returned
// index is safe for concurrent readers; Close releases the mapping once
// no readers remain.
func OpenMapped(path string) (*Index, error) {
	m, err := mapFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: open mapped: %w", err)
	}
	// The eager metadata walk touches the whole file front to back;
	// tell the kernel so readahead batches the faults, then switch to
	// random for queries, which read a few lists scattered through the
	// file.
	m.adviseSequential()
	sr := &sliceReader{data: m.data}
	x, err := readIndex(sr, false)
	if err != nil {
		m.Close()
		return nil, err
	}
	if sr.off != len(sr.data) {
		m.Close()
		return nil, fmt.Errorf("index: %d trailing bytes after index image", len(sr.data)-sr.off)
	}
	x.mapped = m
	m.adviseRandom()
	return x, nil
}
