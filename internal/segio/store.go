package segio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"xsp/internal/trace"
	"xsp/internal/vclock"
)

// ErrCorrupt marks a file or record that failed validation (bad magic,
// checksum mismatch, out-of-bounds offsets). Whole files that fail are
// quarantined during Open, never half-loaded.
var ErrCorrupt = errors.New("segio: corrupt data")

// ErrNeedRotate is returned by LogBatch after a recovery until the caller
// re-establishes a coherent WAL with Rotate. Appending to a recovered WAL
// would be unsafe: its tail may be torn, and its snapshot no longer
// matches the state the caller rebuilt.
var ErrNeedRotate = errors.New("segio: recovered store requires Rotate before appends")

const (
	segMagic = "XSPSEG1\n"
	walMagic = "XSPWAL1\n"

	formatVersion = 1

	segHeaderLen = 8 + 4 + 8 + 4 // magic, version, payload len, payload crc
	walHeaderLen = 8 + 4 + 4     // magic, version, reserved

	walBatchRec    = 1
	walSnapshotRec = 2

	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantine"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// MaxDedup bounds the persisted batch-dedup id window. Zero means the
	// default (4096, matching the server's in-memory FIFO).
	MaxDedup int
}

// SpanKey is the canonical sweep-order compare key of a span, persisted
// as the correlator's release floor so a restart keeps classifying deep
// arrivals as stragglers exactly where the crashed process did.
type SpanKey struct {
	Begin vclock.Time
	End   vclock.Time
	Level trace.Level
	Kind  trace.Kind
	ID    uint64
}

// CorrEntry is one persisted correlation-table binding.
type CorrEntry struct {
	Corr   uint64
	Parent uint64
	At     vclock.Time
}

// Snapshot is the WAL-resident image of everything not yet folded into a
// segment file: the correlator's live tail, its correlation-id table, its
// release floor, and (maintained by the store itself) the batch-dedup id
// window and the segment-id stamp that dates segment files against it.
type Snapshot struct {
	// Live is the fed-but-unfolded span tail, in any order: recovery replays
	// it as one batch, through the correlator's totally ordered reorder
	// buffer.
	Live []*trace.Span
	// Owned marks Live spans (bitset, bit i for Live[i]) whose ParentID
	// was derived by the correlator rather than supplied by the tracer.
	Owned []uint64
	// Corr is the live correlation-id table, oldest binding first.
	Corr []CorrEntry
	// Floor, when non-nil, is the compare key of the newest span ever
	// released past the reorder buffer.
	Floor *SpanKey

	// dedup carries the store-maintained batch-id window across the WAL
	// boundary; it is the store's state, not the caller's.
	dedup []uint64
	// nextSeg is the store's next segment id when the record was written:
	// every segment file with a smaller id predates the snapshot. A record
	// written before the stamp existed decodes as math.MaxUint64 — every
	// segment predates it. Store state like dedup; Open reports it per
	// segment as Segment.SinceSnapshot.
	nextSeg uint64
}

// Segment is one recovered segment file: checksummed and structurally
// validated whole, then let go of and opened for reading in windows — every
// record addressable, owned flags in the records, nothing decoded or held.
// Whoever recovers it owns File and closes it.
type Segment struct {
	ID   uint64
	File *SegmentFile
	// SinceSnapshot reports that the file was written after the recovered
	// WAL's snapshot record (or that the WAL holds none): if the WAL also
	// carries the segment's spans, the segment is a fold whose rotation was
	// deferred, not a leftover the snapshot re-covered.
	SinceSnapshot bool
}

// Batch is one recovered WAL batch record: spans fed (or ingested over
// HTTP, in which case BatchID is the client batch id) after the last
// snapshot.
type Batch struct {
	Spans   []*trace.Span
	Owned   []uint64
	BatchID uint64
}

// Recovery reports what Open reconstructed from disk.
type Recovery struct {
	// Segments, ascending by file id, deduplicated: a leftover segment
	// superseded by a compaction (its spans reappear in a newer file) is
	// dropped whole and deleted.
	Segments []Segment
	// Snapshot is the last snapshot record in the WAL, if any.
	Snapshot *Snapshot
	// Batches are the WAL batch records appended after that snapshot.
	Batches []Batch
	// DedupIDs is the reconstructed batch-dedup window, oldest first.
	DedupIDs []uint64
	// Quarantined lists files that failed validation and were renamed to
	// <name>.quarantine.
	Quarantined []string
	// SupersededSegments counts dropped leftover segments.
	SupersededSegments int
	// WALTruncatedBytes is the torn tail discarded from the WAL.
	WALTruncatedBytes int64
}

// Store is a durable segment + WAL store on a flat FS. All methods are
// safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	fs   FS
	opts Options

	wal      File // append handle; nil until first Rotate after recovery
	walName  string
	walGen   uint64
	walBytes int64

	nextSeg  uint64
	segs     map[uint64]int64 // id -> file bytes
	dedup    []uint64
	needRot  bool
	lastRecs int    // WAL records appended since last Rotate
	rec      []byte // LogBatch's record buffer, reused across calls under mu
}

func (st *Store) lock()   { st.mu.Lock() }
func (st *Store) unlock() { st.mu.Unlock() }

// Stats is a point-in-time durability summary.
type Stats struct {
	Segments     int
	SegmentBytes int64
	WALBytes     int64
	WALRecords   int
	DedupIDs     int
}

func segName(id uint64) string  { return fmt.Sprintf("seg-%016x.seg", id) }
func walName(gen uint64) string { return fmt.Sprintf("wal-%016x.wal", gen) }

// parseName reads the id out of a file name that format (segName or
// walName) writes. Any other name — upper-case hex digits included, which
// would parse to an id whose file is named otherwise — is not the store's,
// and is left alone like any unrelated file.
func parseName(name string, format func(uint64) string) (uint64, bool) {
	_, hexPart, ok := strings.Cut(name, "-")
	if !ok || len(hexPart) < 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(hexPart[:16], 16, 64)
	if err != nil || format(id) != name {
		return 0, false
	}
	return id, true
}

// Open scans fs, reconstructs the committed state, and returns a Store
// ready for use. Recovery is tolerant by construction: corrupt files are
// quarantined, superseded segment leftovers are dropped by span-id
// overlap (newest file wins), and a torn WAL tail is discarded at the
// first unreadable record. If any prior state existed, LogBatch fails
// with ErrNeedRotate until the caller calls Rotate — the recovered WAL is
// never appended to.
func Open(fs FS, opts Options) (*Store, *Recovery, error) {
	if opts.MaxDedup <= 0 {
		opts.MaxDedup = 4096
	}
	st := &Store{
		fs:   fs,
		opts: opts,
		segs: make(map[uint64]int64),
	}
	rec := &Recovery{}
	opened := false
	defer func() {
		if !opened { // an error return: nobody will close the segment files
			for _, seg := range rec.Segments {
				seg.File.Close()
			}
		}
	}()

	names, err := fs.ReadDir()
	if err != nil {
		return nil, nil, err
	}
	dirty := false
	var segIDs, walGens []uint64
	maxSeg := uint64(0)
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			if err := fs.Remove(n); err != nil {
				return nil, nil, err
			}
			dirty = true
			continue
		}
		if id, ok := parseName(n, segName); ok {
			segIDs = append(segIDs, id)
			if id > maxSeg {
				maxSeg = id
			}
			continue
		}
		if gen, ok := parseName(n, walName); ok {
			walGens = append(walGens, gen)
		}
	}
	st.nextSeg = maxSeg + 1

	quarantine := func(name string) error {
		if err := fs.Rename(name, name+quarantineSuffix); err != nil {
			return err
		}
		rec.Quarantined = append(rec.Quarantined, name)
		dirty = true
		return nil
	}

	// Segments, newest file first: the survivor of a compaction carries
	// every span of the files it replaced, so any id overlap with what is
	// already loaded proves this file is a superseded leftover whose
	// deletion the crash interrupted. One file's bytes are held at a time:
	// each is validated whole and then opened for windowed reads.
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] > segIDs[j] })
	seen := make(map[uint64]struct{})
	for _, id := range segIDs {
		name := segName(id)
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		blk, err := decodeSegment(data)
		if err != nil {
			if qerr := quarantine(name); qerr != nil {
				return nil, nil, qerr
			}
			continue
		}
		superseded := false
		for i := 0; i < blk.Len() && !superseded; i++ {
			_, superseded = seen[blk.ID(i)]
		}
		if superseded {
			rec.SupersededSegments++
			if err := fs.Remove(name); err != nil {
				return nil, nil, err
			}
			dirty = true
			continue
		}
		for i := 0; i < blk.Len(); i++ {
			seen[blk.ID(i)] = struct{}{}
		}
		f, err := st.OpenSegment(id)
		if err != nil {
			return nil, nil, err
		}
		rec.Segments = append(rec.Segments, Segment{ID: id, File: f})
		st.segs[id] = int64(len(data))
	}
	sort.Slice(rec.Segments, func(i, j int) bool { return rec.Segments[i].ID < rec.Segments[j].ID })

	// WAL, newest generation first; a rotation can leave the previous
	// generation behind if the crash landed between rename and delete.
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] > walGens[j] })
	walChosen := false
	for _, gen := range walGens {
		name := walName(gen)
		if walChosen {
			if err := fs.Remove(name); err != nil {
				return nil, nil, err
			}
			dirty = true
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		snap, batches, trunc, err := decodeWAL(data)
		if err != nil {
			if qerr := quarantine(name); qerr != nil {
				return nil, nil, qerr
			}
			continue
		}
		walChosen = true
		st.walGen = gen
		st.walName = name
		st.walBytes = int64(len(data)) - trunc
		rec.Snapshot = snap
		rec.Batches = batches
		rec.WALTruncatedBytes = trunc
	}

	// Date every segment against the snapshot's segment-id stamp, and keep
	// ids ascending across the restart even when every file the stamp
	// counted has since been deleted.
	for i := range rec.Segments {
		rec.Segments[i].SinceSnapshot = rec.Snapshot == nil || rec.Segments[i].ID >= rec.Snapshot.nextSeg
	}
	if rec.Snapshot != nil && rec.Snapshot.nextSeg != math.MaxUint64 {
		st.nextSeg = max(st.nextSeg, rec.Snapshot.nextSeg)
	}

	// Reconstruct the dedup window: the snapshot's persisted ids, then
	// every batch id appended after it, bounded to the newest MaxDedup.
	if rec.Snapshot != nil {
		st.dedup = append(st.dedup, rec.Snapshot.dedup...)
	}
	for _, b := range rec.Batches {
		if b.BatchID != 0 {
			st.dedup = append(st.dedup, b.BatchID)
		}
	}
	if len(st.dedup) > opts.MaxDedup {
		st.dedup = append([]uint64(nil), st.dedup[len(st.dedup)-opts.MaxDedup:]...)
	}
	rec.DedupIDs = append([]uint64(nil), st.dedup...)

	hadState := walChosen || len(rec.Segments) > 0 || rec.WALTruncatedBytes > 0 || len(rec.Quarantined) > 0
	if !walChosen {
		// Fresh directory (or every WAL was quarantined): publish an empty
		// generation-1 WAL so the append path has a home.
		st.walGen++
		for {
			taken := false
			for _, gen := range walGens {
				if gen == st.walGen {
					taken = true
				}
			}
			if !taken {
				break
			}
			st.walGen++
		}
		if err := st.publishWAL(nil); err != nil {
			return nil, nil, err
		}
		dirty = false // publishWAL synced the directory
	}
	st.needRot = hadState
	if !st.needRot && st.wal == nil {
		f, err := fs.OpenAppend(st.walName)
		if err != nil {
			return nil, nil, err
		}
		st.wal = f
	}
	if dirty {
		if err := fs.SyncDir(); err != nil {
			return nil, nil, err
		}
	}
	opened = true
	return st, rec, nil
}

// publishWAL writes a brand-new WAL for the current walGen containing the
// header and, when snap is non-nil, one snapshot record; it is synced,
// atomically renamed into place, and left closed (the caller reopens for
// append as needed). The image is built in one buffer presized from the
// live tail, so a snapshot is encoded once and never copied.
func (st *Store) publishWAL(snap *Snapshot) error {
	size := walHeaderLen
	if snap != nil {
		size += walRecHeaderLen + 128 + spanEncSize*len(snap.Live) + 24*len(snap.Corr) + 8*len(st.dedup)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	if snap != nil {
		var start int
		buf, start = beginWALRecord(buf, walSnapshotRec)
		buf = sealWALRecord(encodeSnapshot(buf, snap, st.dedup, st.nextSeg), start)
	}
	name := walName(st.walGen)
	if err := st.publishFile(name, func(w io.Writer) error { _, err := w.Write(buf); return err }); err != nil {
		return err
	}
	st.walName = name
	st.walBytes = int64(len(buf))
	st.lastRecs = 0
	return nil
}

// publishFile durably publishes what write writes as the file name:
// written to a temporary name, synced and closed, renamed into place, and
// the directory synced — so a crash leaves either no file of that name or
// all of it.
func (st *Store) publishFile(name string, write func(w io.Writer) error) error {
	tmp := name + tmpSuffix
	f, err := st.fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := st.fs.Rename(tmp, name); err != nil {
		return err
	}
	return st.fs.SyncDir()
}

// Rotate atomically replaces the WAL with a fresh one holding a single
// snapshot record (plus the store-maintained dedup window and segment-id
// stamp), then deletes the previous WAL. This is the WAL trim: everything
// the snapshot covers no longer needs its old batch records. It costs the
// whole snapshot, so callers rotate when the records it sheds outweigh
// that, not at every fold. It also re-arms appends after a recovery.
func (st *Store) Rotate(snap Snapshot) error {
	st.lock()
	defer st.unlock()
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	oldName := st.walName
	st.walGen++
	if err := st.publishWAL(&snap); err != nil {
		return err
	}
	if oldName != "" && oldName != st.walName {
		if err := st.fs.Remove(oldName); err != nil {
			return err
		}
		if err := st.fs.SyncDir(); err != nil {
			return err
		}
	}
	f, err := st.fs.OpenAppend(st.walName)
	if err != nil {
		return err
	}
	st.wal = f
	st.needRot = false
	return nil
}

// LogBatch appends one batch record (spans plus an optional nonzero batch
// id) to the WAL and syncs it before returning. A batch is logged as it
// arrived, so no span in it is owned.
// Once LogBatch returns nil the batch survives any crash. After a recovery
// it fails with ErrNeedRotate until Rotate runs.
func (st *Store) LogBatch(spans []*trace.Span, batchID uint64) error {
	st.lock()
	defer st.unlock()
	if st.needRot || st.wal == nil {
		return ErrNeedRotate
	}
	rec, start := beginWALRecord(st.rec[:0], walBatchRec)
	rec = binary.LittleEndian.AppendUint64(rec, batchID)
	rec = sealWALRecord(trace.AppendSpanBlock(rec, spans, nil), start)
	st.rec = rec
	if _, err := st.wal.Write(rec); err != nil {
		return err
	}
	if err := st.wal.Sync(); err != nil {
		return err
	}
	st.walBytes += int64(len(rec))
	st.lastRecs++
	if batchID != 0 {
		st.dedup = append(st.dedup, batchID)
		if len(st.dedup) > st.opts.MaxDedup {
			st.dedup = st.dedup[len(st.dedup)-st.opts.MaxDedup:]
		}
	}
	return nil
}

// WriteSegment durably publishes one segment file whose payload is block —
// an encoded span block, owned flags in its records, which the caller holds
// and the store does not look into — and then deletes the files it
// replaces (compaction inputs). The new file is fully synced and renamed
// into place before any old file is touched, so a crash anywhere leaves
// either the old set, or the new file plus deletable leftovers that recovery
// drops by span-id overlap.
func (st *Store) WriteSegment(block []byte, replaces []uint64) (uint64, error) {
	// The header and the caller's block go out as two writes, the block
	// from where it lies: a crash between them leaves only a .tmp.
	return st.writeSegment(replaces, func(w io.Writer) error {
		if _, err := w.Write(segHeader(len(block), crc32.Checksum(block, castagnoli))); err != nil {
			return err
		}
		_, err := w.Write(block)
		return err
	})
}

// WriteGathered is WriteSegment for a payload gathered from records other
// blocks hold — a compaction's k-way merge of its inputs, or a file less
// the records a repair took out — streamed as trace.StreamSpanBlock writes
// it: the n records walk hands out, in that order, owned flags kept, walked
// twice and never held whole. walk's error fails the write.
func (st *Store) WriteGathered(n int, walk func(yield func(blk *trace.SpanBlock, i int) bool) error, replaces []uint64) (uint64, error) {
	return st.writeSegment(replaces, func(w io.Writer) error {
		return trace.StreamSpanBlock(w, n, walk, crc32.New(castagnoli), segHeader)
	})
}

// writeSegment publishes the next segment file, its bytes what write
// writes, and then deletes the files it replaces.
func (st *Store) writeSegment(replaces []uint64, write func(w io.Writer) error) (uint64, error) {
	st.lock()
	defer st.unlock()
	id := st.nextSeg
	st.nextSeg++
	cw := &countingWriter{}
	if err := st.publishFile(segName(id), func(w io.Writer) error { cw.w = w; return write(cw) }); err != nil {
		return 0, err
	}
	st.segs[id] = cw.n
	if err := st.dropLocked(replaces); err != nil {
		return 0, err
	}
	return id, nil
}

// segHeader is a segment file's header for a payload of size bytes whose
// checksum is sum.
func segHeader(size int, sum uint32) []byte {
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(size))
	binary.LittleEndian.PutUint32(hdr[20:], sum)
	return hdr
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DropSegments deletes segment files that are no longer referenced (for
// example after a deep-straggler reopen took every span of theirs back
// into the live tail and a Rotate covered them in the WAL snapshot; a file
// a reopen took only some spans of is replaced through WriteSegment).
func (st *Store) DropSegments(ids []uint64) error {
	st.lock()
	defer st.unlock()
	return st.dropLocked(ids)
}

func (st *Store) dropLocked(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	for _, id := range ids {
		if _, ok := st.segs[id]; !ok {
			continue
		}
		if err := st.fs.Remove(segName(id)); err != nil {
			return err
		}
		delete(st.segs, id)
	}
	return st.fs.SyncDir()
}

// Reset deletes every segment and WAL file and starts a fresh empty
// generation, clearing the dedup window. It mirrors the correlator's
// Reset.
func (st *Store) Reset() error {
	st.lock()
	defer st.unlock()
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	for id := range st.segs {
		if err := st.fs.Remove(segName(id)); err != nil {
			return err
		}
		delete(st.segs, id)
	}
	if st.walName != "" {
		if err := st.fs.Remove(st.walName); err != nil {
			return err
		}
		st.walName = ""
	}
	if err := st.fs.SyncDir(); err != nil {
		return err
	}
	st.dedup = nil
	st.walGen++
	if err := st.publishWAL(nil); err != nil {
		return err
	}
	f, err := st.fs.OpenAppend(st.walName)
	if err != nil {
		return err
	}
	st.wal = f
	st.needRot = false
	return nil
}

// Stats returns a point-in-time durability summary.
func (st *Store) Stats() Stats {
	st.lock()
	defer st.unlock()
	var segBytes int64
	for _, b := range st.segs {
		segBytes += b
	}
	return Stats{
		Segments:     len(st.segs),
		SegmentBytes: segBytes,
		WALBytes:     st.walBytes,
		WALRecords:   st.lastRecs,
		DedupIDs:     len(st.dedup),
	}
}

// Close releases the WAL append handle. The store must not be used after.
func (st *Store) Close() error {
	st.lock()
	defer st.unlock()
	if st.wal != nil {
		err := st.wal.Close()
		st.wal = nil
		return err
	}
	return nil
}

func ownedBit(owned []uint64, i int) bool {
	return i/64 < len(owned) && owned[i/64]&(1<<(i%64)) != 0
}

// walRecHeaderLen is what beginWALRecord puts on the buffer: body length,
// body CRC, and the type byte the body starts with.
const walRecHeaderLen = 4 + 4 + 1

// beginWALRecord opens a WAL record on buf — a reserved length/CRC header
// and the type byte — and returns the record's offset. The caller appends
// the payload straight onto the returned buffer and closes the record with
// sealWALRecord, so a record is built in place instead of being copied
// into its frame.
func beginWALRecord(buf []byte, typ byte) ([]byte, int) {
	start := len(buf)
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ), start
}

// sealWALRecord fills in the header of the record opened at start: the
// length and checksum of everything appended since, type byte included.
func sealWALRecord(buf []byte, start int) []byte {
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf
}

// decodeSegment checks a segment file — header, checksum, and the payload's
// structure, which fails exactly where decoding it would — and returns the
// payload as the block it is, sharing data.
func decodeSegment(data []byte) (trace.SpanBlock, error) {
	if len(data) < segHeaderLen || string(data[:8]) != segMagic {
		return trace.SpanBlock{}, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != formatVersion {
		return trace.SpanBlock{}, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	payloadLen := le.Uint64(data[12:])
	if payloadLen > uint64(len(data)-segHeaderLen) {
		return trace.SpanBlock{}, fmt.Errorf("%w: segment truncated (%d of %d payload bytes)", ErrCorrupt, len(data)-segHeaderLen, payloadLen)
	}
	payload := data[segHeaderLen : segHeaderLen+int(payloadLen)]
	if crc32.Checksum(payload, castagnoli) != le.Uint32(data[20:]) {
		return trace.SpanBlock{}, fmt.Errorf("%w: segment checksum mismatch", ErrCorrupt)
	}
	blk, _, err := trace.ParseSpanBlock(payload)
	if err != nil {
		return trace.SpanBlock{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return blk, nil
}

// decodeWAL parses a WAL image. A header failure is an error (the file
// is quarantined); a record failure — a bad length or checksum, a payload
// its decoder rejects, or bytes after the payload's last field — is a torn
// tail: everything before it is kept and trunc reports the discarded byte
// count.
func decodeWAL(data []byte) (snap *Snapshot, batches []Batch, trunc int64, err error) {
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		return nil, nil, 0, fmt.Errorf("%w: bad WAL magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return nil, nil, 0, fmt.Errorf("%w: unsupported WAL version %d", ErrCorrupt, v)
	}
	off := walHeaderLen
	for {
		if off+8 > len(data) {
			break
		}
		le := binary.LittleEndian
		ln := int(le.Uint32(data[off:]))
		crc := le.Uint32(data[off+4:])
		if ln < 1 || off+8+ln > len(data) {
			break
		}
		body := data[off+8 : off+8+ln]
		if crc32.Checksum(body, castagnoli) != crc {
			break
		}
		typ, payload := body[0], body[1:]
		switch typ {
		case walBatchRec:
			if len(payload) < 8 {
				return snap, batches, int64(len(data) - off), nil
			}
			batchID := le.Uint64(payload)
			spans, owned, rest, derr := decodeSpanBlock(payload[8:])
			if derr != nil || len(rest) != 0 {
				return snap, batches, int64(len(data) - off), nil
			}
			batches = append(batches, Batch{Spans: spans, Owned: owned, BatchID: batchID})
		case walSnapshotRec:
			s, derr := decodeSnapshot(payload)
			if derr != nil {
				return snap, batches, int64(len(data) - off), nil
			}
			// A snapshot subsumes everything before it.
			snap, batches = s, nil
		default:
			return snap, batches, int64(len(data) - off), nil
		}
		off += 8 + ln
	}
	return snap, batches, int64(len(data) - off), nil
}

// dedup and nextSeg ride inside Snapshot only across the WAL boundary;
// they are the store's own state, not the caller's, so they stay
// unexported. nextSeg is the trailing field: records that end at the dedup
// window are the format before it existed.
func encodeSnapshot(buf []byte, s *Snapshot, dedup []uint64, nextSeg uint64) []byte {
	le := binary.LittleEndian
	buf = trace.AppendSpanBlock(buf, s.Live, func(i int) bool { return ownedBit(s.Owned, i) })
	buf = le.AppendUint32(buf, uint32(len(s.Corr)))
	for _, c := range s.Corr {
		buf = le.AppendUint64(buf, c.Corr)
		buf = le.AppendUint64(buf, c.Parent)
		buf = le.AppendUint64(buf, uint64(c.At))
	}
	if s.Floor != nil {
		buf = append(buf, 1)
		buf = le.AppendUint64(buf, uint64(s.Floor.Begin))
		buf = le.AppendUint64(buf, uint64(s.Floor.End))
		buf = le.AppendUint32(buf, uint32(int32(s.Floor.Level)))
		buf = append(buf, byte(s.Floor.Kind))
		buf = le.AppendUint64(buf, s.Floor.ID)
	} else {
		buf = append(buf, 0)
	}
	buf = le.AppendUint32(buf, uint32(len(dedup)))
	for _, id := range dedup {
		buf = le.AppendUint64(buf, id)
	}
	return le.AppendUint64(buf, nextSeg)
}

func decodeSnapshot(payload []byte) (*Snapshot, error) {
	spans, owned, rest, err := decodeSpanBlock(payload)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Live: spans, Owned: owned}
	r := &blockReader{b: rest}
	le := binary.LittleEndian
	corrN := int(r.u32())
	corrBytes := r.bytes(corrN * 24)
	if r.err != nil {
		return nil, r.err
	}
	s.Corr = make([]CorrEntry, corrN)
	for i := range s.Corr {
		ent := corrBytes[i*24:]
		s.Corr[i] = CorrEntry{
			Corr:   le.Uint64(ent[0:]),
			Parent: le.Uint64(ent[8:]),
			At:     vclock.Time(le.Uint64(ent[16:])),
		}
	}
	hasFloor := r.bytes(1)
	if r.err != nil {
		return nil, r.err
	}
	if hasFloor[0] > 1 {
		return nil, fmt.Errorf("%w: snapshot floor flag %d", ErrCorrupt, hasFloor[0])
	}
	if hasFloor[0] != 0 {
		fb := r.bytes(29)
		if r.err != nil {
			return nil, r.err
		}
		s.Floor = &SpanKey{
			Begin: vclock.Time(le.Uint64(fb[0:])),
			End:   vclock.Time(le.Uint64(fb[8:])),
			Level: trace.Level(int32(le.Uint32(fb[16:]))),
			Kind:  trace.Kind(fb[20]),
			ID:    le.Uint64(fb[21:]),
		}
	}
	dedupN := int(r.u32())
	dedupBytes := r.bytes(dedupN * 8)
	if r.err != nil {
		return nil, r.err
	}
	s.dedup = make([]uint64, dedupN)
	for i := range s.dedup {
		s.dedup[i] = le.Uint64(dedupBytes[i*8:])
	}
	s.nextSeg = math.MaxUint64
	if r.off < len(r.b) {
		stamp := r.bytes(8)
		if r.err != nil {
			return nil, r.err
		}
		s.nextSeg = le.Uint64(stamp)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d bytes after the snapshot's last field", ErrCorrupt, len(r.b)-r.off)
	}
	return s, nil
}
