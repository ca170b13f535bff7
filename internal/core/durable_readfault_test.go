package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"syscall"
	"testing"

	"xsp/internal/core"
	"xsp/internal/segio"
	"xsp/internal/segio/faultfs"
	"xsp/internal/trace"
)

// readFaultRun plays the client against a durable stream on fs, reading the
// correlated view every fourth batch and checkpointing every fourth (so
// folds, compactions and views all read segment files), and stops at the
// first latched durability error. It returns the batches acknowledged while
// the store was healthy — FeedLogged returned nil before anything latched,
// so their WAL record is fsynced — and whether a view's read failed.
func readFaultRun(fs *faultfs.FS, opts func(core.SegmentStore) core.StreamOptions, batches [][]*trace.Span) (acked int, viewFailed bool) {
	st, rec, err := segio.Open(fs, segio.Options{})
	if err != nil {
		return 0, false
	}
	sc, err := core.RecoverStream(opts(st), rec)
	if err != nil {
		return 0, false
	}
	defer sc.Close()
	for i, b := range batches {
		if sc.DurabilityErr() != nil {
			break
		}
		if err := sc.FeedLogged(uint64(i+1), cloneBatch(b)...); err != nil {
			break
		}
		acked = i + 1
		if (i+1)%4 == 0 {
			sc.Checkpoint()
		}
		if (i+1)%4 == 2 {
			v := sc.View(false)
			if err := v.WriteBinary(io.Discard); err != nil {
				viewFailed = true
				if !errors.Is(err, syscall.EIO) || !errors.Is(sc.DurabilityErr(), syscall.EIO) {
					panic(fmt.Sprintf("a view's read failed with %v, latched %v: want EIO both", err, sc.DurabilityErr()))
				}
			}
			v.Close()
		}
	}
	return acked, viewFailed
}

// TestDurableStreamReadFaults is the crash matrix's read arm: a disk that
// starts failing reads with EIO at read N, for N across every read a run
// makes, fails the read that hit it — a view's, a compaction's or a
// repair's — latches DurabilityErr, never panics, and loses no span
// acknowledged while the store was healthy: a clean boot from the same
// disk, the client retrying the rest, finishes on the batch oracle. The
// same holds with the faults in recovery itself: a boot that hits one
// fails, closing every segment file it opened, and the next clean boot
// recovers everything.
func TestDurableStreamReadFaults(t *testing.T) {
	for _, shape := range durableShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel()
			batches := shape.load(3_000, 7)
			want := batchParents(batches)
			dry := faultfs.New()
			if acked, failed := readFaultRun(dry, shape.opts, batches); acked != len(batches) || failed {
				t.Fatalf("unarmed run: acked %d of %d, view failed %v", acked, len(batches), failed)
			}
			reads := dry.Reads()
			if reads < 100 {
				t.Fatalf("the run read segment files %d times: too few to place faults among", reads)
			}
			stride := reads/60 + 1
			inView, elsewhere := 0, 0
			for n := 1; n <= reads; n += stride {
				fs := faultfs.New()
				fs.Arm(faultfs.Plan{CrashAfter: math.MaxInt, FailReadsFrom: n})
				acked, viewFailed := readFaultRun(fs, shape.opts, batches)
				switch {
				case viewFailed:
					inView++
				case acked < len(batches):
					elsewhere++
				}
				rebootAndFinish(t, fmt.Sprintf("EIO from read %d/%d", n, reads), fs.Recovered(), acked, shape.opts, batches, want)
			}
			if inView == 0 || elsewhere == 0 {
				t.Fatalf("faults hit %d views and %d folds or repairs: want both", inView, elsewhere)
			}

			// Recovery: the finished disk booted with reads failing from each
			// of its recovery's reads on.
			boot := dry.Recovered()
			bootReads := boot.Reads()
			if st, rec, err := segio.Open(boot, segio.Options{}); err == nil {
				if sc, err := core.RecoverStream(shape.opts(st), rec); err == nil {
					sc.Close()
				}
			}
			bootReads = boot.Reads() - bootReads
			for n := 1; n <= bootReads; n++ {
				fs := dry.Recovered()
				fs.Arm(faultfs.Plan{CrashAfter: math.MaxInt, FailReadsFrom: fs.Reads() + n})
				if st, rec, err := segio.Open(fs, segio.Options{}); err == nil {
					if _, err := core.RecoverStream(shape.opts(st), rec); err == nil {
						t.Fatalf("boot with EIO from its read %d/%d recovered", n, bootReads)
					}
				}
				if open := fs.OpenReads(); open != 0 {
					t.Fatalf("a boot failed by EIO from its read %d/%d left %d segment files open", n, bootReads, open)
				}
				rebootAndFinish(t, fmt.Sprintf("boot EIO from read %d/%d", n, bootReads), fs.Recovered(), len(batches), shape.opts, batches, want)
			}
		})
	}
}

// wholeFS is a faultfs without its ranged reads: the store reads its
// segment files whole, once per pass, as it does on any FS without them.
type wholeFS struct{ fs *faultfs.FS }

func (w wholeFS) Create(name string) (segio.File, error)     { return w.fs.Create(name) }
func (w wholeFS) OpenAppend(name string) (segio.File, error) { return w.fs.OpenAppend(name) }
func (w wholeFS) ReadFile(name string) ([]byte, error)       { return w.fs.ReadFile(name) }
func (w wholeFS) Rename(oldname, newname string) error       { return w.fs.Rename(oldname, newname) }
func (w wholeFS) Remove(name string) error                   { return w.fs.Remove(name) }
func (w wholeFS) ReadDir() ([]string, error)                 { return w.fs.ReadDir() }
func (w wholeFS) SyncDir() error                             { return w.fs.SyncDir() }

// A view pinned before a compaction that deletes its inputs walks
// byte-identically after it: a handle keeps reading a removed file, and on
// an FS that reads files only whole the departing file is read in before
// its name goes. Once the view and the stream let go, no read handle is
// left open.
func TestPinnedViewOutlivesCompaction(t *testing.T) {
	for _, arm := range []struct {
		name string
		fs   func(*faultfs.FS) segio.FS
	}{
		{"ranged", func(f *faultfs.FS) segio.FS { return f }},
		{"whole", func(f *faultfs.FS) segio.FS { return wholeFS{f} }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			disk := faultfs.New()
			st, rec, err := segio.Open(arm.fs(disk), segio.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := core.RecoverStream(durableOpts(st), rec)
			if err != nil {
				t.Fatal(err)
			}
			segFiles := func() map[string]bool {
				names, _ := disk.ReadDir()
				set := make(map[string]bool)
				for _, n := range names {
					if len(n) > 4 && n[:4] == "seg-" {
						set[n] = true
					}
				}
				return set
			}
			batches := durableLoad(6_000, 11)
			i := 0
			for ; i < len(batches) && len(segFiles()) < 2; i++ {
				if err := sc.FeedLogged(uint64(i+1), cloneBatch(batches[i])...); err != nil {
					t.Fatal(err)
				}
				sc.Checkpoint()
			}
			pinnedFiles := segFiles()
			if len(pinnedFiles) < 2 {
				t.Fatalf("the stream left %d segment files to pin", len(pinnedFiles))
			}
			v := sc.View(false)
			var before bytes.Buffer
			if err := v.WriteBinary(&before); err != nil {
				t.Fatal(err)
			}

			gone := 0
			for ; i < len(batches) && gone == 0; i++ {
				if err := sc.FeedLogged(uint64(i+1), cloneBatch(batches[i])...); err != nil {
					t.Fatal(err)
				}
				sc.Checkpoint()
				now := segFiles()
				gone = 0
				for n := range pinnedFiles {
					if !now[n] {
						gone++
					}
				}
			}
			if gone == 0 {
				t.Fatalf("no compaction deleted a pinned segment file")
			}
			var after bytes.Buffer
			if err := v.WriteBinary(&after); err != nil {
				t.Fatalf("the pinned view after a compaction deleted %d of its files: %v", gone, err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("the pinned view walks %d bytes after the compaction, %d before", after.Len(), before.Len())
			}
			if err := sc.DurabilityErr(); err != nil {
				t.Fatal(err)
			}
			v.Close()
			sc.Close()
			if n := disk.OpenReads(); n != 0 {
				t.Fatalf("%d read handles open once the view and the stream let go", n)
			}
		})
	}
}
