package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"toppriv/internal/corpus"
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
//	journal.wal    — magic header, then length-prefixed CRC-framed records
//	SNAPSHOT.json  — periodic compaction point (atomic rename)
//
// Each record is one frame (frame.go) around a JSON payload.
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

const (
	journalMagic    = "TPJW1\n"
	journalName     = "journal.wal"
	snapshotName    = "SNAPSHOT.json"
	snapshotVersion = 1
	// journalMaxRecord bounds one record's payload; a length beyond it is
	// treated as corruption, not an allocation request.
	journalMaxRecord = 64 << 20
)

// errJournalCrash is returned by appends after an injected crash point
// fired: the journal is poisoned exactly as a killed process would
// leave it, and the router built over it must be thrown away.
var errJournalCrash = errors.New("cluster: journal crash point fired")

// journalRecord is one durable mutation. Exactly one of the mutation
// shapes is set: an ingest record carries the gid-range burn plus the
// per-shard placements (with full document content, so a shard that
// lost its memtable can be re-fed), a delete record carries the target.
type journalRecord struct {
	// Seq is the record's monotone sequence number, the unit of shard
	// reconciliation: a shard that reports durable sequence s has made
	// every record with Seq <= s addressed to it durable.
	Seq uint64 `json:"seq"`
	// Base/Burn record a gid-range burn: gids [Base, Base+Burn) are
	// spent whether or not delivery succeeds, so a replayed router can
	// never re-bind them to different documents.
	Base corpus.DocID `json:"base,omitempty"`
	Burn int          `json:"burn,omitempty"`
	// Places carries the ingest payload per target shard.
	Places []placeEntry `json:"places,omitempty"`
	// Delete tombstones one gid on its owning shard.
	Delete *deleteEntry `json:"delete,omitempty"`

	// rejected is router-runtime state, never serialized: the target
	// shard, reachable and in sync, answered that the mutation can
	// never apply (a delete of an unknown gid). Retired at next prune.
	rejected bool
}

type placeEntry struct {
	Shard string      `json:"shard"`
	Docs  []ingestDoc `json:"docs"`
}

type deleteEntry struct {
	Shard string       `json:"shard"`
	Gid   corpus.DocID `json:"gid"`
}

// targets reports whether the record carries a mutation for shard name.
func (r *journalRecord) targets(name string) bool {
	for _, p := range r.Places {
		if p.Shard == name {
			return true
		}
	}
	return r.Delete != nil && r.Delete.Shard == name
}

// shardNames lists the shards the record mutates.
func (r *journalRecord) shardNames() []string {
	var names []string
	for _, p := range r.Places {
		names = append(names, p.Shard)
	}
	if r.Delete != nil {
		names = append(names, r.Delete.Shard)
	}
	return names
}

// snapshot is the journal's compaction point: everything replay needs
// that is not in the WAL tail. Pending records (not yet shard-durable)
// are carried forward verbatim; everything older is dropped, which is
// what bounds the journal to the shards' save lag rather than the
// corpus size.
type snapshot struct {
	Version int          `json:"version"`
	NextSeq uint64       `json:"next_seq"`
	NextGid corpus.DocID `json:"next_gid"`
	// Pending are the records whose target shards had not confirmed
	// durability when the snapshot was cut, in ascending Seq order.
	Pending []journalRecord `json:"pending,omitempty"`
	// Titles is the gid -> title table at snapshot time, capped by the
	// router's title-cache bound; it is what lets the router evict its
	// in-memory cache without losing cheap title resolution across a
	// restart (misses still fall back to a shard fetch).
	Titles map[corpus.DocID]string `json:"titles,omitempty"`
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

// journal is the live append handle. Appends are group-committed: every
// Append blocks until its record is durable, but concurrent appends
// share fsyncs via the sync cursor.
type journal struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	size    int64 // bytes in journal.wal, header included
	synced  int64 // high-water of fsynced bytes
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
	goodBytes, err := replayWAL(walPath, st)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	if goodBytes == 0 {
		// Fresh (or fully torn-at-header) WAL: start from the magic.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: journal: %w", err)
		}
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: journal: %w", err)
		}
		goodBytes = int64(len(journalMagic))
	} else if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	if _, err := f.Seek(goodBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	j := &journal{dir: dir, f: f, size: goodBytes, synced: goodBytes, nextSeq: st.NextSeq, crashAfter: -1}
	if j.nextSeq == 0 {
		j.nextSeq = 1
	}
	st.NextSeq = j.nextSeq
	return j, st, nil
}

func loadSnapshot(dir string, st *journalState) error {
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("cluster: journal snapshot: %w", err)
	}
	defer f.Close()
	var snap snapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("cluster: journal snapshot corrupt: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("cluster: journal snapshot: unsupported version %d", snap.Version)
	}
	st.NextSeq = snap.NextSeq
	st.NextGid = snap.NextGid
	st.Pending = append(st.Pending, snap.Pending...)
	st.Replayed += len(snap.Pending)
	for gid, title := range snap.Titles {
		st.Titles[gid] = title
	}
	return nil
}

// replayWAL folds the WAL's records into st and returns the byte offset
// of the last whole, valid frame — the reopen truncation point.
func replayWAL(path string, st *journalState) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("cluster: journal: %w", err)
	}
	if len(data) == 0 {
		return 0, nil
	}
	if len(data) < len(journalMagic) {
		if string(data) == journalMagic[:len(data)] {
			// Crash during the very first header write: an empty journal
			// with a torn header, not corruption.
			st.TornBytes = int64(len(data))
			return 0, nil
		}
		return 0, fmt.Errorf("cluster: journal: bad magic header")
	}
	if string(data[:len(journalMagic)]) != journalMagic {
		return 0, fmt.Errorf("cluster: journal: bad magic header")
	}
	off := int64(len(journalMagic))
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, nil
		}
		payload, size, err := openFrame(rest, journalMaxRecord)
		if errors.Is(err, errFrameTorn) {
			// Header or payload cut by EOF — a crash-torn final record, or
			// a corrupted length field that is indistinguishable from one.
			// Either way nothing past this offset is trustworthy as a
			// frame boundary; report the cut loudly and stop.
			st.TornBytes = int64(len(rest))
			return off, nil
		}
		if err != nil {
			// A complete frame that fails its checksum is interior
			// corruption (bit rot, tampering) — never replay past it,
			// never drop it silently.
			return 0, fmt.Errorf("cluster: journal: record at offset %d fails checksum — refusing to replay a corrupted journal", off)
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return 0, fmt.Errorf("cluster: journal: record at offset %d undecodable: %w", off, err)
		}
		applyRecord(st, rec)
		off += int64(size)
	}
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
	for _, p := range rec.Places {
		for _, d := range p.Docs {
			if d.Doc.Title != "" {
				st.Titles[d.Gid] = d.Doc.Title
			}
		}
	}
	if rec.Delete != nil {
		delete(st.Titles, rec.Delete.Gid)
	}
	st.Pending = append(st.Pending, rec)
	st.Replayed++
}

// Append assigns the record its sequence number, frames it, writes and
// fsyncs. It returns only after the record is durable (group-committed:
// a concurrent append may have synced past this record already, in
// which case the fsync is skipped).
func (j *journal) Append(rec *journalRecord) error {
	j.mu.Lock()
	if j.dead != nil {
		err := j.dead
		j.mu.Unlock()
		return err
	}
	// Seq assignment under the lock keeps the on-disk order equal to the
	// seq order, which is what per-shard reconciliation relies on.
	rec.Seq = j.nextSeq
	j.nextSeq++
	payload, err := json.Marshal(rec)
	if err != nil {
		j.nextSeq--
		j.mu.Unlock()
		return err
	}
	frame := make([]byte, frameHeader+len(payload))
	copy(frame[frameHeader:], payload)
	sealFrame(frame)

	if j.crashAfter >= 0 && j.size+int64(len(frame)) > j.crashAfter {
		// Injected crash: write only the bytes that "made it to disk"
		// before the kill, then poison the handle. The partial frame is
		// exactly the torn tail recovery must tolerate.
		keep := j.crashAfter - j.size
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			j.f.Write(frame[:keep])
			j.f.Sync()
		}
		j.dead = errJournalCrash
		j.mu.Unlock()
		return errJournalCrash
	}

	if _, err := j.f.Write(frame); err != nil {
		j.dead = fmt.Errorf("cluster: journal append: %w", err)
		err := j.dead
		j.mu.Unlock()
		return err
	}
	j.size += int64(len(frame))
	target := j.size
	if err := j.syncToLocked(target); err != nil {
		j.mu.Unlock()
		return err
	}
	j.mu.Unlock()
	return nil
}

// syncToLocked makes bytes [0, target) durable, skipping the fsync when
// a concurrent append already carried the cursor past target. Caller
// holds j.mu.
func (j *journal) syncToLocked(target int64) error {
	if j.synced >= target {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		j.dead = fmt.Errorf("cluster: journal sync: %w", err)
		return j.dead
	}
	j.synced = j.size
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
	snap := snapshot{
		Version: snapshotVersion,
		NextSeq: j.nextSeq,
		NextGid: nextGid,
		Pending: pending,
		Titles:  titles,
	}
	if err := writeJSONAtomic(j.dir, snapshotName, &snap); err != nil {
		return fmt.Errorf("cluster: journal snapshot: %w", err)
	}
	// The snapshot is durable; the WAL's contents are now redundant.
	if err := j.f.Truncate(int64(len(journalMagic))); err != nil {
		j.dead = fmt.Errorf("cluster: journal reset: %w", err)
		return j.dead
	}
	if _, err := j.f.Seek(int64(len(journalMagic)), io.SeekStart); err != nil {
		j.dead = fmt.Errorf("cluster: journal reset: %w", err)
		return j.dead
	}
	if err := j.f.Sync(); err != nil {
		j.dead = fmt.Errorf("cluster: journal reset: %w", err)
		return j.dead
	}
	j.size = int64(len(journalMagic))
	j.synced = j.size
	return nil
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

// writeJSONAtomic replaces dir/name with v's JSON encoding: written to a
// temporary file and fsynced, renamed over name, and the rename made
// durable by syncing dir. A crash at any point leaves either the old
// file or the new one, never a torn one.
func writeJSONAtomic(dir, name string, v any) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(v)
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
