//go:build linux

package index

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// mapping is a read-only memory mapping of one TPIX file. A finalizer
// backstops Close: the segment store retires parts by dropping all
// references (a snapshot taken for Save may still be reading them, so
// an eager munmap would be unsound there), and the mapping is then
// unmapped when the collector proves nothing can touch its pages.
type mapping struct {
	data   []byte
	mmaped bool
}

// mapFile maps path read-only with MADV_RANDOM-ready pages.
func mapFile(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return &mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("file size %d exceeds address space", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	m := &mapping{data: data, mmaped: true}
	runtime.SetFinalizer(m, (*mapping).Close)
	return m, nil
}

// Close unmaps. Idempotent; safe on nil.
func (m *mapping) Close() error {
	if m == nil || !m.mmaped {
		return nil
	}
	m.mmaped = false
	data := m.data
	m.data = nil
	runtime.SetFinalizer(m, nil)
	return syscall.Munmap(data)
}

// heapBacked reports whether the mapping's bytes occupy heap memory
// (the portable fallback) rather than evictable page-cache pages.
func (m *mapping) heapBacked() bool { return m != nil && !m.mmaped && m.data != nil }

// adviseSequential hints the kernel that the mapping is about to be
// read front to back (the open-time metadata walk).
func (m *mapping) adviseSequential() {
	if m != nil && m.mmaped {
		_ = syscall.Madvise(m.data, syscall.MADV_SEQUENTIAL)
	}
}

// adviseRandom hints the kernel that access is now a few lists per
// query, scattered through the file, disabling readahead so a query
// faults in only the blocks it decodes.
func (m *mapping) adviseRandom() {
	if m != nil && m.mmaped {
		_ = syscall.Madvise(m.data, syscall.MADV_RANDOM)
	}
}
