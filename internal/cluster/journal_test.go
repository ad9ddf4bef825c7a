package cluster

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/frame"
)

// jdoc builds a small document under its gid.
func jdoc(gid corpus.DocID, title string) corpus.Document {
	return corpus.Document{ID: gid, Title: title, Text: "text of " + title}
}

func appendRecords(t *testing.T, j *journal, recs []journalRecord) []journalRecord {
	t.Helper()
	out := make([]journalRecord, len(recs))
	for i, rec := range recs {
		if err := j.Append(&rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out[i] = rec
	}
	return out
}

// addShare and deleteShare are shard's shares of an add and a delete.
func addShare(shard string, docs ...corpus.Document) share {
	return share{Shard: shard, Body: appendAdd(nil, docs)}
}

func deleteShare(shard string, gid corpus.DocID) share {
	return share{Shard: shard, Body: appendDelete(nil, gid)}
}

func sampleRecords() []journalRecord {
	return []journalRecord{
		{Base: 0, Burn: 3, Shares: []share{
			addShare("http://a", jdoc(0, "alpha"), jdoc(2, "gamma")),
			addShare("http://b", jdoc(1, "beta")),
		}},
		{Shares: []share{deleteShare("http://b", 1)}},
		{Base: 3, Burn: 1, Shares: []share{
			addShare("http://b", jdoc(3, "delta")),
		}},
	}
}

// recBytes is rec's journal frame, the form records are compared in.
func recBytes(rec journalRecord) string {
	return string(appendRecord(nil, &rec))
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.NextSeq != 1 || len(st.Pending) != 0 {
		t.Fatalf("fresh journal state: %+v", st)
	}
	want := appendRecords(t, j, sampleRecords())
	if want[0].Seq != 1 || want[2].Seq != 3 {
		t.Fatalf("seq assignment: %d, %d, %d", want[0].Seq, want[1].Seq, want[2].Seq)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st2.TornBytes != 0 {
		t.Fatalf("clean journal reports %d torn bytes", st2.TornBytes)
	}
	if st2.NextSeq != 4 {
		t.Fatalf("NextSeq = %d, want 4", st2.NextSeq)
	}
	if st2.NextGid != 4 {
		t.Fatalf("NextGid = %d, want 4", st2.NextGid)
	}
	if len(st2.Pending) != len(want) {
		t.Fatalf("replayed %d pending, want %d", len(st2.Pending), len(want))
	}
	for i := range want {
		if recBytes(st2.Pending[i]) != recBytes(want[i]) {
			t.Fatalf("record %d changed across replay:\n got %x\nwant %x",
				i, recBytes(st2.Pending[i]), recBytes(want[i]))
		}
	}
	// Titles fold from placements, deletes evict.
	if st2.Titles[0] != "alpha" || st2.Titles[3] != "delta" {
		t.Fatalf("titles: %+v", st2.Titles)
	}
	if _, ok := st2.Titles[1]; ok {
		t.Fatal("deleted gid 1 still has a title")
	}
	// Seq continuity: the next append must not reuse a sequence number.
	rec := journalRecord{Shares: []share{deleteShare("http://a", 0)}}
	if err := j2.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 4 {
		t.Fatalf("post-replay append got seq %d, want 4", rec.Seq)
	}
}

func TestJournalTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecords(t, j, sampleRecords())
	j.Close()

	path := filepath.Join(dir, journalName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: a plausible header promising more payload than the
	// file holds, as a crash mid-append leaves behind.
	torn := append(append([]byte{}, clean...), 0xEE, 0x01, 0x00, 0x00, 0xde, 0xad)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, st, err := openJournal(dir)
	if err != nil {
		t.Fatalf("torn tail must replay, got %v", err)
	}
	if st.TornBytes != 6 {
		t.Fatalf("TornBytes = %d, want 6", st.TornBytes)
	}
	if len(st.Pending) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(st.Pending), len(want))
	}
	j2.Close()
	// Reopen truncated the tail: the file is byte-identical to the
	// clean journal again.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(after), len(clean))
	}
}

// TestJournalByteFlipSweep is the satellite's corruption oracle: for
// every byte of a saved journal, flipping one bit must either (a) fail
// replay loudly, or (b) replay a strict prefix of the original records
// with the cut reported as torn bytes. A record that differs from what
// was appended must never come back.
func TestJournalByteFlipSweep(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecords(t, j, sampleRecords())
	j.Close()
	wantRecs := make([]string, len(want))
	for i := range want {
		wantRecs[i] = recBytes(want[i])
	}
	clean, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(clean); off++ {
		fdir := t.TempDir()
		mut := append([]byte{}, clean...)
		mut[off] ^= 0x10
		if err := os.WriteFile(filepath.Join(fdir, journalName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, st, err := openJournal(fdir)
		if err != nil {
			// Loud failure is a correct outcome — but it must mention the
			// journal, not be some incidental I/O error.
			if !strings.Contains(err.Error(), "journal") {
				t.Fatalf("offset %d: unexpected error shape: %v", off, err)
			}
			continue
		}
		// Replay succeeded: every recovered record must be byte-identical
		// to the original at its position — a prefix, possibly with a
		// reported torn tail, never a mutated or reordered record.
		if len(st.Pending) > len(want) {
			j2.Close()
			t.Fatalf("offset %d: replayed %d records from a %d-record journal", off, len(st.Pending), len(want))
		}
		for i := range st.Pending {
			if got := recBytes(st.Pending[i]); got != wantRecs[i] {
				j2.Close()
				t.Fatalf("offset %d: record %d corrupted silently:\n got %x\nwant %x", off, i, got, wantRecs[i])
			}
		}
		if len(st.Pending) < len(want) && st.TornBytes == 0 {
			j2.Close()
			t.Fatalf("offset %d: dropped %d record(s) silently (no torn-tail report)",
				off, len(want)-len(st.Pending))
		}
		j2.Close()
	}
}

// TestJournalTruncationSweep cuts the WAL at every possible length:
// replay must always recover the longest clean prefix and report any
// mid-frame cut, never error (truncation is exactly what a crash
// produces) and never resurrect a cut record.
func TestJournalTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecords(t, j, sampleRecords())
	j.Close()
	wantRecs := make([]string, len(want))
	for i := range want {
		wantRecs[i] = recBytes(want[i])
	}
	clean, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}

	prevReplayed := 0
	for cut := 0; cut <= len(clean); cut++ {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, journalName), clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, st, err := openJournal(fdir)
		if err != nil {
			t.Fatalf("cut %d: truncated journal must replay, got %v", cut, err)
		}
		for i := range st.Pending {
			if got := recBytes(st.Pending[i]); got != wantRecs[i] {
				t.Fatalf("cut %d: record %d corrupted: %x", cut, i, got)
			}
		}
		if cut == len(clean) && len(st.Pending) != len(want) {
			t.Fatalf("full-length file replayed %d of %d records", len(st.Pending), len(want))
		}
		if len(st.Pending) < prevReplayed {
			t.Fatalf("cut %d: replayed %d records, shorter than cut %d's %d", cut, len(st.Pending), cut-1, prevReplayed)
		}
		prevReplayed = len(st.Pending)
		j2.Close()
	}
}

func TestJournalCompactionAndSeqDedup(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := appendRecords(t, j, sampleRecords())
	// Records 1 and 2 are shard-durable; record 3 stays pending.
	carried := []journalRecord{recs[2]}
	titles := map[corpus.DocID]string{0: "alpha", 2: "gamma", 3: "delta"}
	if err := j.Compact(4, carried, titles); err != nil {
		t.Fatal(err)
	}
	if j.Size() != int64(len(journalMagic)) {
		t.Fatalf("WAL not reset after compaction: %d bytes", j.Size())
	}
	// More traffic after the snapshot.
	tail := appendRecords(t, j, []journalRecord{
		{Base: 4, Burn: 1, Shares: []share{addShare("http://a", jdoc(4, "epsilon"))}},
	})
	j.Close()

	j2, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.NextGid != 5 {
		t.Fatalf("NextGid = %d, want 5", st.NextGid)
	}
	if len(st.Pending) != 2 {
		t.Fatalf("pending = %d records, want 2 (snapshot carry + tail)", len(st.Pending))
	}
	if recBytes(st.Pending[0]) != recBytes(recs[2]) || recBytes(st.Pending[1]) != recBytes(tail[0]) {
		t.Fatalf("pending mismatch: %+v", st.Pending)
	}
	if st.NextSeq != 5 {
		t.Fatalf("NextSeq = %d, want 5", st.NextSeq)
	}
	if st.Titles[3] != "delta" || st.Titles[4] != "epsilon" {
		t.Fatalf("titles across compaction: %+v", st.Titles)
	}
}

// checkReplay is the fuzz property of WAL replay, whose input is
// whatever the disk holds at router start: no panic, and when replay
// succeeds, the bytes it keeps and the bytes it reports torn are the
// whole input; the kept bytes alone replay to the same records with
// nothing torn; and the records come back in strictly ascending
// sequence order, below the sequence the next append takes.
func checkReplay(t *testing.T, data []byte) {
	st := &journalState{Titles: map[corpus.DocID]string{}}
	good, err := replayWAL(data, st)
	if err != nil {
		return
	}
	if good < 0 || good+st.TornBytes != int64(len(data)) {
		t.Fatalf("%d-byte WAL: kept %d, torn %d", len(data), good, st.TornBytes)
	}
	again := &journalState{Titles: map[corpus.DocID]string{}}
	if good2, err := replayWAL(data[:good], again); err != nil || good2 != good || again.TornBytes != 0 {
		t.Fatalf("the kept %d bytes replay to %d kept, %d torn, err %v", good, good2, again.TornBytes, err)
	}
	if len(again.Pending) != len(st.Pending) {
		t.Fatalf("the kept bytes replay %d records, the whole input %d", len(again.Pending), len(st.Pending))
	}
	for i, rec := range st.Pending {
		if recBytes(again.Pending[i]) != recBytes(rec) {
			t.Fatalf("record %d differs between the input and its kept bytes", i)
		}
		if i > 0 && rec.Seq <= st.Pending[i-1].Seq {
			t.Fatalf("record %d has sequence %d after %d", i, rec.Seq, st.Pending[i-1].Seq)
		}
		if rec.Seq >= st.NextSeq {
			t.Fatalf("record %d has sequence %d, the next append takes %d", i, rec.Seq, st.NextSeq)
		}
	}
}

func FuzzReplayJournal(f *testing.F) {
	dir := f.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for _, rec := range sampleRecords() {
			if err := j.Append(&rec); err != nil {
				f.Fatal(err)
			}
		}
	}
	j.Close()
	clean, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(clean[:len(journalMagic)+5])
	f.Add([]byte(journalMagic[:3]))
	f.Add([]byte{})
	rec := sampleRecords()[0]
	for _, seq := range []uint64{7, math.MaxUint64} {
		rec.Seq = seq
		f.Add([]byte(recBytes(rec))[frame.Header:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		// A mutated WAL hardly ever passes a CRC, so the record decoder
		// would go unfuzzed: also replay data sealed as one record.
		sealed := make([]byte, frame.Header+len(data))
		copy(sealed[frame.Header:], data)
		frame.Seal(sealed)
		checkReplay(t, append(append([]byte(journalMagic), sealed...), clean[len(journalMagic):]...))
	})
}

// TestJournalCrashHook drives the kill-after-N-bytes hook: the append
// is cut mid-frame, the journal poisons itself, and reopen recovers
// everything durable with the partial frame reported and truncated.
func TestJournalCrashHook(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := appendRecords(t, j, sampleRecords()[:2])
	j.CrashAfter(j.Size() + 7) // mid-frame of the next append
	rec := sampleRecords()[2]
	if err := j.Append(&rec); err != errJournalCrash {
		t.Fatalf("append past crash point: err = %v, want errJournalCrash", err)
	}
	if err := j.Append(&rec); err != errJournalCrash {
		t.Fatalf("poisoned journal accepted an append: %v", err)
	}
	j.Close()

	j2, st, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.TornBytes != 7 {
		t.Fatalf("TornBytes = %d, want 7", st.TornBytes)
	}
	if len(st.Pending) != 2 {
		t.Fatalf("replayed %d records, want the 2 durable ones", len(st.Pending))
	}
	for i := range want {
		if recBytes(st.Pending[i]) != recBytes(want[i]) {
			t.Fatalf("record %d mismatch after crash", i)
		}
	}
	// The crashed record was never acknowledged; its seq is reusable.
	if st.NextSeq != 3 {
		t.Fatalf("NextSeq = %d, want 3", st.NextSeq)
	}
}

// TestJournalRefusesJSONFormat: a journal written by a build whose
// records were JSON — a TPJW1 WAL, or a SNAPSHOT.json beside it — is
// refused at open, and the error says how to migrate.
func TestJournalRefusesJSONFormat(t *testing.T) {
	for _, tt := range []struct{ name, file, content string }{
		{"TPJW1 WAL", journalName, "TPJW1\n"},
		{"SNAPSHOT.json", "SNAPSHOT.json", `{"version":1,"next_seq":4,"next_gid":3}` + "\n"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tt.file), []byte(tt.content), 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := openJournal(dir)
		if err == nil {
			j.Close()
			t.Fatalf("%s: accepted", tt.name)
		}
		if msg := err.Error(); !strings.Contains(msg, tt.file) || !strings.Contains(msg, "drain it with the build that wrote it") {
			t.Fatalf("%s: error does not name the migration: %v", tt.name, err)
		}
	}
}

// TestJournalSnapshotRefusesDamage: a snapshot is renamed into place
// whole, so any damage to one — a flipped byte, a cut at any length, a
// byte appended — fails the journal's open loudly instead of replaying
// a snapshot short of records or titles.
func TestJournalSnapshotRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := appendRecords(t, j, sampleRecords())
	if err := j.Compact(4, recs[1:], map[corpus.DocID]string{0: "alpha", 3: "delta"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	open := func(what string, data []byte) {
		t.Helper()
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, snapshotName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, err := openJournal(fdir)
		if err == nil {
			j.Close()
			t.Fatalf("%s: a damaged snapshot was accepted", what)
		}
		if !strings.Contains(err.Error(), "journal") {
			t.Fatalf("%s: unexpected error shape: %v", what, err)
		}
	}
	for off := range snap {
		flipped := append([]byte(nil), snap...)
		flipped[off] ^= 0x10
		open(fmt.Sprintf("byte %d flipped", off), flipped)
	}
	for cut := 1; cut < len(snap); cut++ {
		open(fmt.Sprintf("cut to %d bytes", cut), snap[:cut])
	}
	open("a byte appended", append(append([]byte(nil), snap...), 0))
}
