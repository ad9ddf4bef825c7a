package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
)

// The placement journal is the router's durability point: a mutation is
// acknowledged to the caller only after its record is appended to the
// write-ahead log and fsynced. Shard delivery happens afterwards and may
// fail or be lost to a crash — the record stays pending until the target
// shard confirms it has made the mutation *durable* (its persisted
// applied-sequence high-water covers the record), and until then the
// router can re-drive it through the idempotent gid-addressed ingest.
//
// On-disk layout in the journal directory:
//
//	journal.wal   — journalMagic, then one frame (package frame) per record
//	journal.snap  — snapshotMagic, then the compaction point's frames
//	                (written aside and renamed into place)
//
// A record's payload:
//
//	uvarint seq
//	uvarint base, burn     the gid range [base, base+burn) it burns (0, 0: a delete)
//	uvarint shares
//	shares × {             one per target shard
//	    uvarint n, n bytes the shard's name
//	    the share's body   a mutation frame's body (wire.go), documents in full
//	}
//
// A snapshot's frames are its head — uvarint next_seq, next_gid, then the
// counts of the frames that follow: pending, titles — then each pending
// record's frame as the WAL holds it, then one frame per cached title:
// uvarint gid, then the title's bytes. One frame loop (frame.Walk) reads
// both files.
//
// Recovery semantics, the contract the byte-flip sweep tests pin down:
//
//   - A frame cut short by EOF (crash mid-append) is a torn tail: replay
//     succeeds, the torn bytes are reported and truncated on reopen, and
//     the dropped record was by definition never acknowledged.
//   - A complete frame with a bad CRC is interior corruption: replay
//     fails loudly. A corrupted placement is never replayed.
//   - A corrupted length that points past EOF is indistinguishable from
//     a torn tail; the replay result then reports the (possibly large)
//     truncated byte count so the operator sees exactly what was cut.
//   - A snapshot is written whole or not at all, so any cut in one is
//     corruption.

const (
	journalMagic  = "TPJW2\n"
	journalName   = "journal.wal"
	snapshotMagic = "TPJS2\n"
	snapshotName  = "journal.snap"
	// journalMaxRecord bounds one frame's payload; a length beyond it is
	// treated as corruption, not an allocation request.
	journalMaxRecord = 64 << 20
	// oldJournalMagic and oldSnapshotName are the files of the journal
	// that held JSON records, refused with msgMigrate.
	oldJournalMagic = "TPJW1\n"
	oldSnapshotName = "SNAPSHOT.json"
	msgMigrate      = "holds JSON records, which this build cannot read: drain it with the build that wrote it " +
		"(run that router until GET /stats shows no pending_records), stop it, empty the journal directory " +
		"and start this build's router with every shard up, which resumes above every gid and sequence " +
		"the shards hold; over in-memory shards, which never drain it, empty it and add the corpus again"
)

// errJournalCrash is returned by appends after an injected crash point
// fired: the journal is poisoned exactly as a killed process would
// leave it, and the router built over it must be thrown away.
var errJournalCrash = errors.New("cluster: journal crash point fired")

// journalRecord is one mutation in the router's log: an add's gid-range
// burn and each target shard's share of its documents, or a delete's
// one share.
type journalRecord struct {
	// Seq is the record's monotone sequence number, the unit of shard
	// reconciliation: a shard that reports durable sequence s has made
	// every record with Seq <= s addressed to it durable.
	Seq uint64
	// Base/Burn record a gid-range burn: gids [Base, Base+Burn) are
	// spent whether or not delivery succeeds, so a replayed router can
	// never re-bind them to different documents.
	Base corpus.DocID
	Burn int
	// Shares holds one share per target shard.
	Shares []share
}

// share is one shard's part of a record: the body of the mutation frame
// that delivers it, with full document content, so a shard that lost
// its memtable can be re-fed.
type share struct {
	Shard string
	Body  []byte
	// rejected is router-runtime state, never serialized: the shard,
	// reachable and in sync, answered that it can never apply the share
	// (a delete of a gid it never held). Only that shard's drive touches
	// it.
	rejected bool
}

// share returns the record's share for shard name, nil if it has none.
func (r *journalRecord) share(name string) *share {
	for i := range r.Shares {
		if r.Shares[i].Shard == name {
			return &r.Shares[i]
		}
	}
	return nil
}

// appendRecord appends rec's journal frame.
func appendRecord(dst []byte, rec *journalRecord) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frame.Header)...)
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.AppendUvarint(dst, uint64(rec.Base))
	dst = binary.AppendUvarint(dst, uint64(rec.Burn))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Shares)))
	for _, sh := range rec.Shares {
		dst = binary.AppendUvarint(dst, uint64(len(sh.Shard)))
		dst = append(dst, sh.Shard...)
		dst = append(dst, sh.Body...)
	}
	frame.Seal(dst[start:])
	return dst
}

// decodeRecord reads a record's payload. Like every frame it has one
// encoding; each body is checked and kept as a copy of its bytes.
func decodeRecord(payload []byte) (journalRecord, error) {
	r := frame.Reader{B: payload, What: "cluster: journal record frame"}
	rec := journalRecord{Seq: r.U64(), Base: r.Gid(), Burn: r.Num()}
	if r.Err == nil && rec.Burn > math.MaxInt32+1-int(rec.Base) {
		r.Failf("burn of %d gids from %d runs past int32", rec.Burn, rec.Base)
	}
	// A share takes a name length and an op at least.
	n := r.Count(2)
	if r.Err != nil {
		return journalRecord{}, r.Err
	}
	rec.Shares = make([]share, n)
	for i := range rec.Shares {
		name := r.Str()
		at := r.B
		var m mutation
		m.decodeBody(&r)
		if r.Err != nil {
			return journalRecord{}, r.Err
		}
		rec.Shares[i] = share{Shard: name, Body: bytes.Clone(at[:len(at)-len(r.B)])}
	}
	if err := r.End(); err != nil {
		return journalRecord{}, err
	}
	return rec, nil
}

// journalState is the result of replaying a journal directory.
type journalState struct {
	NextSeq uint64
	NextGid corpus.DocID
	// Pending holds every record not yet known shard-durable, ascending
	// by Seq: the snapshot's carry-forwards plus the whole WAL tail.
	Pending []journalRecord
	Titles  map[corpus.DocID]string
	// TornBytes counts bytes truncated off the WAL tail (0 for a clean
	// shutdown). Nonzero is loud in the router's log: it means the final
	// append was cut by a crash and its record was never acknowledged.
	TornBytes int64
	// Replayed counts records recovered from snapshot + WAL.
	Replayed int
}

// journal is the live append handle: every Append blocks until its
// record is durable.
type journal struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	size    int64 // bytes in journal.wal, header included
	nextSeq uint64
	dead    error // set once the journal is unusable (crash hook fired)

	// crashAfter, when >= 0, is a fault-injection hook: the next append
	// that would push the file past this many total bytes writes only up
	// to the limit — a genuine torn record — and poisons the journal, as
	// kill -9 mid-write would. Tests drive it via CrashAfter.
	crashAfter int64
}

// openJournal opens (creating if needed) the journal in dir and replays
// snapshot + WAL. The WAL is truncated past any torn tail so appends
// resume at a clean frame boundary.
func openJournal(dir string) (*journal, *journalState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	st := &journalState{Titles: make(map[corpus.DocID]string)}
	if err := loadSnapshot(dir, st); err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	goodBytes, err := replayWAL(data, st)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err == nil && goodBytes == 0 {
		// Fresh (or fully torn-at-header) WAL: start from the magic.
		_, err = f.WriteAt([]byte(journalMagic), 0)
		goodBytes = int64(len(journalMagic))
	}
	if err == nil {
		err = cutWAL(f, goodBytes)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	j := &journal{dir: dir, f: f, size: goodBytes, nextSeq: st.NextSeq, crashAfter: -1}
	if j.nextSeq == 0 {
		j.nextSeq = 1
	}
	st.NextSeq = j.nextSeq
	return j, st, nil
}

// loadSnapshot folds the snapshot, if there is one, into st.
func loadSnapshot(dir string, st *journalState) error {
	if _, err := os.Stat(filepath.Join(dir, oldSnapshotName)); err == nil {
		return fmt.Errorf("cluster: journal: %s in %s %s", oldSnapshotName, dir, msgMigrate)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("cluster: journal snapshot: %w", err)
	}
	frames, pending, titles := 0, 0, 0
	good, err := frame.Walk(data, snapshotMagic, journalMaxRecord, func(_ int64, payload []byte) error {
		r := frame.Reader{B: payload, What: "cluster: journal snapshot frame"}
		switch frames++; {
		case frames == 1:
			st.NextSeq, st.NextGid = r.U64(), r.Gid()
			pending, titles = r.Num(), r.Num()
		case frames <= 1+pending:
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			st.Pending = append(st.Pending, rec)
			return nil
		case frames <= 1+pending+titles:
			gid := r.Gid()
			st.Titles[gid] = string(r.B)
			r.B = nil
		default:
			r.Failf("more frames than its head counts")
		}
		return r.End()
	})
	if err == nil && (good != int64(len(data)) || frames != 1+pending+titles) {
		err = errors.New("cut short")
	}
	if err != nil {
		return fmt.Errorf("cluster: journal snapshot corrupt: %w", err)
	}
	st.Replayed += pending
	return nil
}

// replayWAL folds the records of the WAL's bytes into st and returns the
// byte offset of the end of the last whole, valid frame — the reopen
// truncation point. Every byte past it is counted in st.TornBytes.
func replayWAL(data []byte, st *journalState) (int64, error) {
	switch {
	case len(data) < len(journalMagic) && string(data) == journalMagic[:len(data)]:
		// Empty, or a crash during the very first header write: an empty
		// journal with a torn header, not corruption.
		st.TornBytes = int64(len(data))
		return 0, nil
	case bytes.HasPrefix(data, []byte(oldJournalMagic)):
		return 0, fmt.Errorf("cluster: journal: %s %s", journalName, msgMigrate)
	}
	good, err := frame.Walk(data, journalMagic, journalMaxRecord, func(off int64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("record at offset %d undecodable: %w", off, err)
		}
		if rec.Seq == math.MaxUint64 {
			// No sequence can follow it: the next one would wrap to 0.
			return fmt.Errorf("record at offset %d has the last sequence number", off)
		}
		applyRecord(st, rec)
		return nil
	})
	if err != nil {
		// A corrupted journal is never replayed past the corruption.
		return 0, fmt.Errorf("cluster: journal: %w", err)
	}
	st.TornBytes = int64(len(data)) - good
	return good, nil
}

// applyRecord folds one replayed record into the recovery state,
// skipping records the snapshot already covers.
func applyRecord(st *journalState, rec journalRecord) {
	if rec.Seq < st.NextSeq {
		// Already folded into the snapshot (crash between snapshot rename
		// and WAL reset leaves such duplicates in the tail).
		return
	}
	st.NextSeq = rec.Seq + 1
	if top := rec.Base + corpus.DocID(rec.Burn); rec.Burn > 0 && top > st.NextGid {
		st.NextGid = top
	}
	for _, sh := range rec.Shares {
		// decodeRecord has checked the body.
		r, m := frame.Reader{B: sh.Body}, mutation{}
		m.decodeBody(&r)
		for _, d := range m.docs {
			if d.Title != "" {
				st.Titles[d.ID] = d.Title
			}
		}
		if m.del {
			delete(st.Titles, m.gid)
		}
	}
	st.Pending = append(st.Pending, rec)
	st.Replayed++
}

// Append assigns the record its sequence number, frames it, writes and
// fsyncs: it returns only after the record is durable. A record over
// journalMaxRecord is refused before it takes a sequence.
func (j *journal) Append(rec *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead != nil {
		return j.dead
	}
	// Seq assignment under the lock keeps the on-disk order equal to the
	// seq order, which is what per-shard reconciliation relies on.
	rec.Seq = j.nextSeq
	rf := appendRecord(nil, rec)
	if len(rf)-frame.Header > journalMaxRecord {
		return fmt.Errorf("a %d-byte record is over the %d bytes a record may take", len(rf)-frame.Header, journalMaxRecord)
	}
	j.nextSeq++

	if j.crashAfter >= 0 && j.size+int64(len(rf)) > j.crashAfter {
		// Injected crash: write only the bytes that "made it to disk"
		// before the kill, then poison the handle. The partial frame is
		// exactly the torn tail recovery must tolerate.
		if keep := j.crashAfter - j.size; keep > 0 {
			j.f.Write(rf[:keep])
			j.f.Sync()
		}
		j.dead = errJournalCrash
		return j.dead
	}
	if _, err := j.f.Write(rf); err != nil {
		j.dead = fmt.Errorf("cluster: journal append: %w", err)
		return j.dead
	}
	j.size += int64(len(rf))
	if err := j.f.Sync(); err != nil {
		j.dead = fmt.Errorf("cluster: journal sync: %w", err)
		return j.dead
	}
	return nil
}

// Size reports the WAL's current byte size (the journal_bytes metric).
func (j *journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// CrashAfter arms the kill-after-N-bytes fault hook: the append that
// would push the WAL past n total bytes is cut short and the journal
// poisoned. n < 0 disarms.
func (j *journal) CrashAfter(n int64) {
	j.mu.Lock()
	j.crashAfter = n
	j.mu.Unlock()
}

// Compact writes a snapshot carrying the still-pending records and the
// title table, renames it into place, and resets the WAL. A crash at
// any point leaves either the old snapshot plus the full WAL or the new
// snapshot plus a WAL whose records the snapshot duplicates — replay
// dedupes by sequence number.
func (j *journal) Compact(nextGid corpus.DocID, pending []journalRecord, titles map[corpus.DocID]string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead != nil {
		return j.dead
	}
	if err := frame.WriteFileAtomic(j.dir, snapshotName, appendSnapshot(j.nextSeq, nextGid, pending, titles)); err != nil {
		return fmt.Errorf("cluster: journal snapshot: %w", err)
	}
	// The snapshot is durable; the WAL's contents are now redundant.
	if err := cutWAL(j.f, int64(len(journalMagic))); err != nil {
		j.dead = fmt.Errorf("cluster: journal reset: %w", err)
		return j.dead
	}
	j.size = int64(len(journalMagic))
	return nil
}

// cutWAL truncates the WAL to size bytes, durably, and appends from
// there.
func cutWAL(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	return f.Sync()
}

// Close fsyncs and closes the WAL. Further appends fail.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if j.dead == nil {
		j.dead = errors.New("cluster: journal closed")
	}
	return err
}

// appendSnapshot returns the bytes of the journal's compaction point:
// the records still pending, carried verbatim — everything older is
// dropped, which bounds the journal by the shards' save lag, not the
// corpus — and the title cache, so that a restarted router resolves
// titles without a shard fetch.
func appendSnapshot(nextSeq uint64, nextGid corpus.DocID, pending []journalRecord, titles map[corpus.DocID]string) []byte {
	b := append([]byte(nil), snapshotMagic...)
	start := len(b)
	b = append(b, make([]byte, frame.Header)...)
	for _, v := range [...]uint64{nextSeq, uint64(nextGid), uint64(len(pending)), uint64(len(titles))} {
		b = binary.AppendUvarint(b, v)
	}
	frame.Seal(b[start:])
	for i := range pending {
		b = appendRecord(b, &pending[i])
	}
	for gid, title := range titles {
		start = len(b)
		b = binary.AppendUvarint(append(b, make([]byte, frame.Header)...), uint64(gid))
		b = append(b, title...)
		frame.Seal(b[start:])
	}
	return b
}
