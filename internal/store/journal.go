package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"pqgram/internal/core"
	"pqgram/internal/edit"
	"pqgram/internal/forest"
	"pqgram/internal/fsio"
	"pqgram/internal/obs"
	"pqgram/internal/profile"
	"pqgram/internal/tree"
)

// Store is the durable form of a forest index: a base snapshot (the format
// of Save/Load) plus a write-ahead journal of per-document changes. Every
// mutation appends one journal record before it is applied in memory, so a
// crash at any point loses at most the interrupted record; Open replays
// the intact journal prefix and ignores a torn tail. Compact folds the
// journal into a fresh base snapshot.
//
// This is what makes the paper's index "persistent AND incrementally
// maintainable": an incremental update persists its two small delta bags
// (λ(Δ⁻), λ(Δ⁺)), never the whole index.
//
// Crash-consistency protocol. The journal header binds the journal to the
// exact base snapshot it extends, by recording the snapshot's crc32 (the
// format is deterministic, so the checksum identifies the content).
// Compact first replaces the base atomically (write temp, fsync, rename,
// fsync dir) and only then resets the journal; a crash in between leaves
// a journal whose header names the *old* base — OpenStore sees the
// mismatch and discards it, because every record it holds is already
// folded into the new base. Without the binding, those records would be
// replayed a second time onto a base that already contains them.
// Similarly, a failed or short journal append is rolled back by
// truncating to the previous record boundary, so an ENOSPC cannot leave
// garbage that would wedge later appends between valid records.
type Store struct {
	fs      fsio.FS
	path    string
	forest  *forest.Index
	journal fsio.File
	off     int64 // current journal length: the next record boundary
	sync    bool
	failed  error // sticky: set when the journal state on disk is unknown

	// obs is the attached instrumentation (nil by default); recovery
	// remembers what OpenStore recovered so SetCollector can publish it.
	obs      atomic.Pointer[storeMetrics]
	recovery RecoveryInfo
}

// journal record types.
const (
	recAdd    = 'A' // id, full bag
	recRemove = 'R' // id
	recUpdate = 'U' // id, I⁻ bag, I⁺ bag
)

var journalMagic = [4]byte{'P', 'Q', 'G', 'J'}

// journalVersion 2 introduced the base-binding header: magic, a version
// byte, then the crc32 (big endian) of the base snapshot the journal
// extends. Version-1 journals had no version byte; they are detected as
// foreign (record types are ASCII letters, never 2) and reset.
const (
	journalVersion   = 2
	journalHeaderLen = 4 + 1 + 4
)

func journalHeader(baseCRC uint32) []byte {
	hdr := make([]byte, journalHeaderLen)
	copy(hdr, journalMagic[:])
	hdr[4] = journalVersion
	binary.BigEndian.PutUint32(hdr[5:], baseCRC)
	return hdr
}

// RecoveryInfo describes what OpenStore found and did while bringing the
// store back: how much of the journal was intact, and what had to be
// dropped or reset to get back to a consistent state.
type RecoveryInfo struct {
	Records int64 // intact records replayed onto the base
	Bytes   int64 // bytes of intact records replayed

	TornBytes      int64 // trailing bytes dropped: an append interrupted mid-write
	SkippedRecords int64 // complete records dropped because their checksum failed
	StaleJournal   bool  // journal predated the base (crash during Compact); discarded whole
	JournalReset   bool  // header missing or foreign; journal reinitialized
	DiscardedBytes int64 // bytes thrown away by a stale/reset discard

	Duration time.Duration // wall time of the replay
}

// CreateStore creates a new empty store at path (base file) and path+".wal"
// (journal). An existing store at that path is replaced.
func CreateStore(path string, pr profile.Params) (*Store, error) {
	return CreateStoreFS(fsio.OS, path, pr)
}

// CreateStoreFS is CreateStore against an injected filesystem.
func CreateStoreFS(fsys fsio.FS, path string, pr profile.Params) (*Store, error) {
	crc, _, err := saveFileCRC(fsys, path, forest.New(pr))
	if err != nil {
		return nil, err
	}
	j, err := fsys.OpenFile(path+".wal", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := j.Write(journalHeader(crc)); err != nil {
		j.Close()
		return nil, err
	}
	return &Store{fs: fsys, path: path, forest: forest.New(pr), journal: j, off: journalHeaderLen}, nil
}

// OpenStore loads the base snapshot and replays the journal. A torn or
// corrupt journal tail (from a crash during an append) is truncated away;
// everything before it is recovered. A journal left behind by a crash
// during Compact — already folded into the base it sits next to — is
// detected via the header's base checksum and discarded.
func OpenStore(path string) (*Store, error) {
	return OpenStoreFS(fsio.OS, path)
}

// OpenStoreFS is OpenStore against an injected filesystem.
func OpenStoreFS(fsys fsio.FS, path string) (*Store, error) {
	f, baseCRC, err := loadFileCRC(fsys, path)
	if err != nil {
		return nil, err
	}
	j, err := fsys.OpenFile(path+".wal", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	data, err := io.ReadAll(j)
	if err != nil {
		j.Close()
		return nil, err
	}

	var info RecoveryInfo
	valid := int64(journalHeaderLen)
	reinit := false
	switch {
	case len(data) == 0:
		// Fresh journal (or one whose creation never became durable).
		reinit = true
	case len(data) < journalHeaderLen || [4]byte(data[:4]) != journalMagic || data[4] != journalVersion:
		// Foreign bytes, a torn header, or a pre-versioning journal:
		// nothing in it can be trusted to extend this base.
		info.JournalReset = true
		info.DiscardedBytes = int64(len(data))
		reinit = true
	case binary.BigEndian.Uint32(data[5:9]) != baseCRC:
		// The journal extends a different base snapshot than the one on
		// disk. The only writer that replaces the base is Compact, which
		// folds every journal record into the new base before the journal
		// is reset — so these records are already applied. Replaying them
		// would double-apply; discard instead.
		info.StaleJournal = true
		info.DiscardedBytes = int64(len(data) - journalHeaderLen)
		reinit = true
	default:
		recs, bodyValid, badCRC := scanRecords(data[journalHeaderLen:])
		for i, rec := range recs {
			if err := applyRecord(f, rec); err != nil {
				j.Close()
				return nil, fmt.Errorf("store: journal record %d: %w", i, err)
			}
		}
		info.Records = int64(len(recs))
		info.Bytes = bodyValid
		info.TornBytes = int64(len(data)) - journalHeaderLen - bodyValid
		if badCRC {
			info.SkippedRecords = 1
			// A complete record with a bad checksum is indistinguishable
			// from a torn multi-record tail; everything after it is
			// untrusted and dropped with it.
		}
		valid += bodyValid
	}

	if reinit {
		if err := j.Truncate(0); err != nil {
			j.Close()
			return nil, err
		}
		if _, err := j.Seek(0, io.SeekStart); err != nil {
			j.Close()
			return nil, err
		}
		if _, err := j.Write(journalHeader(baseCRC)); err != nil {
			j.Close()
			return nil, err
		}
		valid = journalHeaderLen
	} else {
		// Drop any torn tail so future appends start at a clean boundary.
		if err := j.Truncate(valid); err != nil {
			j.Close()
			return nil, err
		}
		if _, err := j.Seek(valid, io.SeekStart); err != nil {
			j.Close()
			return nil, err
		}
	}
	info.Duration = time.Since(t0)
	return &Store{fs: fsys, path: path, forest: f, journal: j, off: valid, recovery: info}, nil
}

// Recovery reports what OpenStore found and repaired. Zero for a freshly
// created store.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// SetSync makes every journal append fsync before returning (durability
// over throughput; off by default).
func (s *Store) SetSync(on bool) { s.sync = on }

// Forest returns the live in-memory index. Callers must not mutate it
// directly — use the Store's Add/Remove/Update so changes are journaled.
func (s *Store) Forest() *forest.Index { return s.forest }

// Path returns the base snapshot path.
func (s *Store) Path() string { return s.path }

// Close closes the journal. The store must not be used afterwards.
func (s *Store) Close() error { return s.journal.Close() }

// Add indexes a tree and journals the addition.
func (s *Store) Add(id string, t *tree.Tree) error {
	if s.forest.Has(id) {
		return fmt.Errorf("store: tree %q already indexed", id)
	}
	idx := profile.BuildIndex(t, s.forest.Params())
	var buf bytes.Buffer
	writeString(&buf, id)
	writeBag(&buf, idx)
	if err := s.append(recAdd, buf.Bytes()); err != nil {
		return err
	}
	return s.forest.AddIndex(id, idx)
}

// AddAll bulk-indexes documents: the trees are profiled concurrently on a
// worker pool (forest.BuildIndexes), each addition is journaled, and the
// bags are merged into the sharded postings in parallel. The whole batch
// is validated up front — a duplicate ID rejects it before anything is
// journaled. workers < 1 means GOMAXPROCS.
func (s *Store) AddAll(docs []forest.Doc, workers int) error {
	seen := make(map[string]bool, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		if s.forest.Has(d.ID) {
			return fmt.Errorf("store: tree %q already indexed", d.ID)
		}
		if seen[d.ID] {
			return fmt.Errorf("store: tree %q appears twice in batch", d.ID)
		}
		seen[d.ID] = true
		ids[i] = d.ID
	}
	bags := forest.BuildIndexes(docs, s.forest.Params(), workers)
	for i, bag := range bags {
		var buf bytes.Buffer
		writeString(&buf, ids[i])
		writeBag(&buf, bag)
		if err := s.append(recAdd, buf.Bytes()); err != nil {
			return err
		}
	}
	return s.forest.AddIndexes(ids, bags, workers)
}

// Remove drops a tree and journals the removal.
func (s *Store) Remove(id string) error {
	if !s.forest.Has(id) {
		return fmt.Errorf("store: tree %q not indexed", id)
	}
	var buf bytes.Buffer
	writeString(&buf, id)
	if err := s.append(recRemove, buf.Bytes()); err != nil {
		return err
	}
	return s.forest.Remove(id)
}

// Put replaces a document, journaling a removal (if the id is indexed)
// followed by an addition. It returns the new document's pq-gram count.
// The two records commit independently: a crash in between recovers to
// the state with the document absent — a prefix of the two sub-steps.
func (s *Store) Put(id string, t *tree.Tree) (int, error) {
	if s.forest.Has(id) {
		if err := s.Remove(id); err != nil {
			return 0, err
		}
	}
	if err := s.Add(id, t); err != nil {
		return 0, err
	}
	grams, _, _ := s.forest.TreeStats(id)
	return grams, nil
}

// Update incrementally maintains one document's index (Algorithm 1) and
// journals only the two delta bags — the persistent-update cost is
// proportional to the log, not to the index.
func (s *Store) Update(id string, tn *tree.Tree, log edit.Log) (core.Stats, error) {
	if !s.forest.Has(id) {
		return core.Stats{}, fmt.Errorf("store: tree %q not indexed", id)
	}
	iPlus, iMinus, st, err := core.Deltas(tn, log, s.forest.Params())
	if err != nil {
		return st, err
	}
	var buf bytes.Buffer
	writeString(&buf, id)
	writeBag(&buf, iMinus)
	writeBag(&buf, iPlus)
	if err := s.append(recUpdate, buf.Bytes()); err != nil {
		return st, err
	}
	return st, s.forest.ApplyDeltas(id, iPlus, iMinus)
}

// JournalSize returns the current journal length in bytes.
func (s *Store) JournalSize() (int64, error) {
	fi, err := s.journal.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Compact folds the journal into a fresh base snapshot: the in-memory
// index is written (atomically) as the new base and the journal is reset
// with a header naming the new base. Crash ordering: the base advances
// first, so a cut between the two steps leaves a journal bound to the old
// base — OpenStore discards it, and the recovered state is exactly the
// compacted one. If the journal reset itself fails after the base has
// advanced, the store is marked failed: appending to a journal that
// OpenStore will discard would silently lose acknowledged operations.
func (s *Store) Compact() error {
	if s.failed != nil {
		return fmt.Errorf("store: unusable after earlier failure: %w", s.failed)
	}
	m := s.obs.Load()
	var t0 time.Time
	var sp *obs.Span
	if m != nil {
		t0 = time.Now()
		sp = m.col.StartTrace("store.compact")
		// A deferred finish also publishes traces of failed compactions,
		// which are exactly the ones worth looking at.
		defer sp.Finish()
	}
	crc, renamed, err := saveFileCRC(s.fs, s.path, s.forest)
	if err != nil {
		if renamed {
			// The base advanced but its durability is uncertain.
			s.failed = err
			return fmt.Errorf("store: compact: base replaced but not settled: %w", err)
		}
		return err // old base + intact journal: nothing lost
	}
	if err := s.resetJournal(crc); err != nil {
		s.failed = err
		return fmt.Errorf("store: compact: journal reset failed: %w", err)
	}
	if m != nil {
		m.compactions.Inc()
		m.journalBytes.Set(journalHeaderLen)
		if fi, err := s.fs.Stat(s.path); err == nil {
			m.snapshotBytes.Set(fi.Size())
		}
		m.compactNS.ObserveSince(t0)
		sp.SetAttr("snapshot_bytes", m.snapshotBytes.Load())
		m.col.Event("store compacted", "path", s.path, "snapshot_bytes", m.snapshotBytes.Load())
	}
	return nil
}

// resetJournal truncates the journal and writes a fresh header bound to
// baseCRC. Any crash inside leaves an empty, torn or stale journal — all
// of which OpenStore resolves to "no records", which is correct because
// the caller has already made the base contain everything.
func (s *Store) resetJournal(baseCRC uint32) error {
	if err := s.journal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := s.journal.Write(journalHeader(baseCRC)); err != nil {
		return err
	}
	if s.sync {
		if err := s.journal.Sync(); err != nil {
			return err
		}
	}
	s.off = journalHeaderLen
	return nil
}

// append writes one length-prefixed, checksummed record as a single write
// at the current record boundary. On any failure the journal is rolled
// back to that boundary, so a half-written record can never sit between
// valid ones; if even the rollback fails, the store is marked failed and
// refuses further mutations rather than risk journaling onto garbage.
func (s *Store) append(typ byte, payload []byte) error {
	if s.failed != nil {
		return fmt.Errorf("store: unusable after earlier failure: %w", s.failed)
	}
	m := s.obs.Load()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	var rec bytes.Buffer
	rec.WriteByte(typ)
	putUvarint(&rec, uint64(len(payload)))
	rec.Write(payload)
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(payload)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	rec.Write(sum[:])

	n, err := s.journal.Write(rec.Bytes())
	if err != nil || n < rec.Len() {
		if err == nil {
			err = io.ErrShortWrite
		}
		s.rollback(n)
		return err
	}
	if s.sync {
		if err := s.journal.Sync(); err != nil {
			// The record may or may not be durable; roll it back, and
			// treat the device as untrustworthy from here on (a failed
			// fsync leaves the page cache in an unknown state).
			s.rollback(n)
			s.failed = err
			return err
		}
	}
	s.off += int64(rec.Len())
	if m != nil {
		m.appends.Inc()
		m.appendBytes.Add(int64(rec.Len()))
		m.journalBytes.Add(int64(rec.Len()))
		m.appendNS.ObserveSince(t0)
		if sp := m.col.StartTrace("store.append"); sp != nil {
			// Synthesized after the fact so the un-sampled path does not
			// even start a span inside the write sequence.
			sp.SetAttr("bytes", int64(rec.Len()))
			sp.FinishWithDuration(time.Since(t0))
		}
	}
	return nil
}

// rollback restores the journal to the last record boundary after wrote
// bytes of a failed append. A rollback that itself fails poisons the
// store: the on-disk journal may now end mid-record and later appends
// would be unrecoverable noise after it.
func (s *Store) rollback(wrote int) {
	if wrote > 0 {
		if err := s.journal.Truncate(s.off); err != nil {
			s.failed = err
			return
		}
	}
	if _, err := s.journal.Seek(s.off, io.SeekStart); err != nil {
		s.failed = err
	}
}

// scanRecords parses the journal body (everything after the header) and
// returns the intact records, the offset of the end of the last one, and
// whether scanning stopped at a structurally complete record whose
// checksum failed (as opposed to running out of bytes mid-record).
func scanRecords(data []byte) (recs [][]byte, valid int64, badCRC bool) {
	for {
		rec, n, bad := nextRecord(data[valid:])
		if n == 0 {
			return recs, valid, bad
		}
		recs = append(recs, rec)
		valid += int64(n)
	}
}

// nextRecord parses one record from the front of data, returning the
// payload (with type byte prefixed) and the total record length, or n = 0
// if the data does not contain one intact record. badCRC reports the
// stop reason: all the record's bytes were present but the checksum did
// not match.
func nextRecord(data []byte) (rec []byte, n int, badCRC bool) {
	if len(data) < 1 {
		return nil, 0, false
	}
	typ := data[0]
	plen, lenLen := binary.Uvarint(data[1:])
	if lenLen <= 0 || plen > uint64(len(data)) {
		return nil, 0, false
	}
	start := 1 + lenLen
	end := start + int(plen)
	if end+4 > len(data) {
		return nil, 0, false
	}
	crc := crc32.NewIEEE()
	crc.Write([]byte{typ})
	crc.Write(data[start:end])
	if binary.BigEndian.Uint32(data[end:end+4]) != crc.Sum32() {
		return nil, 0, true
	}
	out := make([]byte, 0, 1+int(plen))
	out = append(out, typ)
	out = append(out, data[start:end]...)
	return out, end + 4, false
}

func applyRecord(f *forest.Index, rec []byte) error {
	r := bytes.NewReader(rec[1:])
	switch rec[0] {
	case recAdd:
		id, err := readString(r)
		if err != nil {
			return err
		}
		bag, err := readBag(r)
		if err != nil {
			return err
		}
		return f.AddIndex(id, bag)
	case recRemove:
		id, err := readString(r)
		if err != nil {
			return err
		}
		return f.Remove(id)
	case recUpdate:
		id, err := readString(r)
		if err != nil {
			return err
		}
		iMinus, err := readBag(r)
		if err != nil {
			return err
		}
		iPlus, err := readBag(r)
		if err != nil {
			return err
		}
		return f.ApplyDeltas(id, iPlus, iMinus)
	}
	return fmt.Errorf("unknown record type %q", rec[0])
}

func writeString(buf *bytes.Buffer, s string) {
	putUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	n, err := getUvarint(r, 1<<20)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeBag(buf *bytes.Buffer, idx profile.Index) {
	putUvarint(buf, uint64(len(idx)))
	// Canonical order: a journal record, like the base snapshot, must be
	// byte-identical for identical logical content. Emitting in map order
	// would make the journal — and therefore the crc of a later Compact's
	// input trace — differ between runs of the same workload.
	tuples := make([]uint64, 0, len(idx))
	for lt := range idx {
		tuples = append(tuples, uint64(lt))
	}
	sort.Slice(tuples, func(i, j int) bool { return tuples[i] < tuples[j] })
	for _, lt := range tuples {
		putUvarint(buf, lt)
		putUvarint(buf, uint64(idx[profile.LabelTuple(lt)]))
	}
}

func readBag(r *bytes.Reader) (profile.Index, error) {
	n, err := getUvarint(r, 1<<50)
	if err != nil {
		return nil, err
	}
	hint := n
	if hint > 1<<16 {
		hint = 1 << 16
	}
	idx := make(profile.Index, hint)
	for i := uint64(0); i < n; i++ {
		lt, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		c, err := getUvarint(r, 1<<50)
		if err != nil {
			return nil, err
		}
		if c == 0 {
			return nil, fmt.Errorf("bag entry with zero count")
		}
		idx[profile.LabelTuple(lt)] += int(c)
	}
	return idx, nil
}
