package index

// Stats summarizes the index shape. The paper uses exactly these
// numbers in its PIR impracticality argument (§II): the WSJ index
// averages 186.7 postings per list but the longest list holds 127,848,
// so PIR padding blows the database up from 259 MB to 178 GB.
type Stats struct {
	NumDocs     int
	NumTerms    int
	NumPostings int
	// MeanListLen is the average postings-list length.
	MeanListLen float64
	// MaxListLen is the longest postings list.
	MaxListLen int
	// SizeBytes is the serialized index size.
	SizeBytes int64
	// PostingsBytes is the exact footprint of the block-compressed
	// postings: the packed blocks, which are all a list holds besides
	// its count and last doc. The dictionary is excluded — this is the
	// number to compare against 8·NumPostings, the cost of the
	// uncompressed ⟨int32 doc, int32 tf⟩ representation.
	PostingsBytes int64
	// BytesPerDoc is PostingsBytes per indexed document — the
	// index_bytes/doc metric the bench suite records and CI gates.
	BytesPerDoc float64
	// ResidentBytes is the heap-resident portion of PostingsBytes: 0
	// for a mapped index (OpenMapped on Linux), whose packed payloads
	// live on evictable page-cache pages; everywhere else it equals
	// PostingsBytes.
	ResidentBytes int64
	// ResidentPerDoc is ResidentBytes per indexed document — the
	// resident_bytes/doc metric the bench suite records and CI gates.
	ResidentPerDoc float64
	// PaddedPIRBytes estimates the index size if every list were padded
	// to MaxListLen, as PIR requires (every retrieval unit equal-sized).
	PaddedPIRBytes int64
}

// ComputeStats scans the lists' metadata; the serialized size is
// measured once per index (see SizeBytes).
func (x *Index) ComputeStats() Stats {
	s := Stats{NumDocs: x.numDocs, NumTerms: len(x.lists)}
	for t := range x.lists {
		cl := &x.lists[t]
		s.NumPostings += int(cl.n)
		if int(cl.n) > s.MaxListLen {
			s.MaxListLen = int(cl.n)
		}
		s.PostingsBytes += int64(cl.end - cl.off)
	}
	if x.mapped == nil || x.mapped.heapBacked() {
		// Otherwise every payload byte is a view into the mapping.
		s.ResidentBytes = s.PostingsBytes
	}
	if s.NumTerms > 0 {
		s.MeanListLen = float64(s.NumPostings) / float64(s.NumTerms)
	}
	if s.NumDocs > 0 {
		s.BytesPerDoc = float64(s.PostingsBytes) / float64(s.NumDocs)
		s.ResidentPerDoc = float64(s.ResidentBytes) / float64(s.NumDocs)
	}
	s.SizeBytes = x.SizeBytes()
	// A posting is one ⟨doc,tf⟩ pair; estimate the padded size using the
	// actual mean bytes per stored posting, scaled to MaxListLen lists.
	if s.NumPostings > 0 {
		bytesPerPosting := float64(s.SizeBytes) / float64(s.NumPostings)
		s.PaddedPIRBytes = int64(bytesPerPosting * float64(s.MaxListLen) * float64(s.NumTerms))
	}
	return s
}

// BlowupFactor returns PaddedPIRBytes / SizeBytes, the cost multiplier
// PIR padding imposes.
func (s Stats) BlowupFactor() float64 {
	if s.SizeBytes == 0 {
		return 0
	}
	return float64(s.PaddedPIRBytes) / float64(s.SizeBytes)
}
