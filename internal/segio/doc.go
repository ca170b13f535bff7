// Package segio persists the streaming correlator's checkpoint ladder
// and the server's exactly-once state across process crashes.
//
// Two kinds of files live in one flat data directory:
//
//   - Segment files (seg-<id>.seg): one immutable, checksummed file per
//     checkpoint segment, written once when the correlator folds or
//     compacts finalized history and deleted when a later file
//     supersedes it: a compaction's survivor, or the remainder a straggler
//     reopen rewrites the file as once the WAL carries the spans it took
//     out. The payload is a fixed-layout span block —
//     constant-size records up front, one shared string blob at the end —
//     which the correlator hands over already encoded (the block a fold
//     made, WriteSegment) or streams from records other blocks and files
//     hold (a compaction's merge or a remainder, WriteGathered, never
//     holding the payload whole and walking its records once: the header
//     goes out as a placeholder and is written at offset 0 of the
//     unpublished .tmp, File.WriteAt, once the payload's size and checksum
//     are known). Open validates each file whole, one at a time, and
//     hands it back as a SegmentFile: its layout and string blob resident,
//     its records read a window at a time, at fixed offsets, through a read
//     handle that outlives the file's name on a ReadAtFS.
//
//   - A write-ahead log (wal-<gen>.wal): an append-only record stream
//     covering everything not yet in a segment — the live span tail as
//     batch records (LogBatch: each the span block the batch arrived in,
//     which the caller hands over encoded and the store does not look
//     into), plus periodic snapshot records holding the live tail, the
//     correlation-id table, the release floor, the batch dedup-id window,
//     and the store's next segment id. Rotation replaces
//     the WAL with a fresh generation whose first record is a snapshot;
//     that is the trim. The caller decides when: the correlator rotates
//     only once the WAL holds as many folded spans as live ones, so
//     between rotations a folded span is in both a segment file and the
//     WAL. The segment-id stamp is what lets recovery read that state:
//     Open reports each segment as written before or since the snapshot
//     (Segment.SinceSnapshot). Spans of a segment written since that the
//     WAL also carries are a deferred fold; spans of a segment written
//     before are what a straggler reopen took back live before the
//     snapshot — all of the file's, and it is a leftover; some, and its
//     remainder's rewrite was cut short. A record without the stamp
//     (written before it existed) dates every segment as before. Open
//     reports segments in ascending id order, so every file written before
//     the snapshot comes ahead of every file written since: the correlator
//     dedups its replay against one set of WAL span ids, which a file
//     written since takes its ids out of.
//
// A WAL generation starts one way (Rotate, Reset, and Open in a directory
// with no readable WAL): published whole under the next generation's
// name — in Open, past the newest generation it saw — the one it replaces
// deleted, and opened for appends.
//
// Crash safety rests on three rules, all enforced by the Store and
// checked by the fault-injection tests in this package and faultfs:
// files become durable content-first (write, sync, then atomic rename,
// then directory sync) so a name never points at unsynced bytes; every
// record and segment payload carries a CRC32-Castagnoli checksum so torn
// or bit-flipped data is detected, quarantined, and never half-loaded;
// and deletions happen only after their replacement is durable, so
// recovery can drop superseded leftovers by span-id overlap (newest file
// wins) without a manifest.
//
// Buffers: WriteSegment writes a header and then the block it is given from
// where it lies; WriteGathered writes through a ~64 KB buffer it reuses;
// LogBatch copies the block it is given, behind the record's header, into
// one buffer the Store owns and reuses under its lock, and keeps none of
// the caller's. So an FS's File must not retain p past Write or WriteAt —
// which is what io.Writer and io.WriterAt already say.
package segio
