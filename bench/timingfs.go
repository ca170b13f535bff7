package bench

import (
	"strings"
	"sync"
	"time"

	"xsp/internal/segio"
)

// FSStats is what the timing file system counted, by the kind of file an
// operation touched: the write-ahead log (wal-*, including the temporary
// name a rotation publishes under), segment files (seg-*), and the
// directory itself.
type FSStats struct {
	WALAppendBytes int64 // bytes written through an append handle: batch records
	WALSyncCount   int64 // File.Sync on any WAL file
	WALSync        time.Duration
	WALRotateCount int64 // WAL files created: one per rotation (and the store's first)
	WALRotateBytes int64 // bytes written to created WAL files: snapshots of the live tail

	SegWriteCount int64 // segment files created
	SegWriteBytes int64
	SegSync       time.Duration
	SegRemoved    int64

	DirSyncCount int64
	DirSync      time.Duration

	ReadBytes int64 // ReadFile, i.e. recovery
}

// WrittenBytes is every byte the store wrote, the numerator of write
// amplification.
func (s FSStats) WrittenBytes() int64 { return s.WALAppendBytes + s.WALRotateBytes + s.SegWriteBytes }

// TimingFS wraps a segio.FS, counts and times every operation, and — when
// it has a recorder — records each as a span caused by whatever
// correlator call the owning tenant has in flight.
type TimingFS struct {
	inner segio.FS
	rec   *Recorder  // nil: count only
	cause func() int // the recorder span the operation belongs to
	mu    sync.Mutex // guards stats
	stats FSStats
}

// NewTimingFS wraps inner. rec and cause may be nil.
func NewTimingFS(inner segio.FS, rec *Recorder, cause func() int) *TimingFS {
	return &TimingFS{inner: inner, rec: rec, cause: cause}
}

// Stats returns the counters so far.
func (f *TimingFS) Stats() FSStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

type fileKind int

const (
	kindOther fileKind = iota
	kindWAL
	kindSeg
)

func classify(name string) fileKind {
	switch {
	case strings.HasPrefix(name, "wal-"):
		return kindWAL
	case strings.HasPrefix(name, "seg-"):
		return kindSeg
	}
	return kindOther
}

func (k fileKind) String() string { return [...]string{"file", "wal", "seg"}[k] }

// op times fn, applies the counter update, and records the span.
func (f *TimingFS) op(name string, fn func() error, count func(s *FSStats, d time.Duration)) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	f.mu.Lock()
	count(&f.stats, end.Sub(start))
	f.mu.Unlock()
	if f.rec != nil {
		parent := 0
		if f.cause != nil {
			parent = f.cause()
		}
		f.rec.Add(RecSpan{Parent: parent, Layer: "segio", Name: name, Depth: DepthOp}, start, end)
	}
	return err
}

func noCount(*FSStats, time.Duration) {}

func (f *TimingFS) Create(name string) (segio.File, error) {
	kind := classify(name)
	var file segio.File
	err := f.op(kind.String()+"_create", func() (err error) {
		file, err = f.inner.Create(name)
		return err
	}, func(s *FSStats, _ time.Duration) {
		switch kind {
		case kindWAL:
			s.WALRotateCount++
		case kindSeg:
			s.SegWriteCount++
		}
	})
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, kind: kind, created: true}, nil
}

func (f *TimingFS) OpenAppend(name string) (segio.File, error) {
	kind := classify(name)
	var file segio.File
	err := f.op(kind.String()+"_open", func() (err error) {
		file, err = f.inner.OpenAppend(name)
		return err
	}, noCount)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, kind: kind}, nil
}

func (f *TimingFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := f.op(classify(name).String()+"_read", func() (err error) {
		data, err = f.inner.ReadFile(name)
		return err
	}, func(s *FSStats, _ time.Duration) { s.ReadBytes += int64(len(data)) })
	return data, err
}

func (f *TimingFS) Rename(oldname, newname string) error {
	return f.op(classify(newname).String()+"_rename", func() error { return f.inner.Rename(oldname, newname) }, noCount)
}

func (f *TimingFS) Remove(name string) error {
	kind := classify(name)
	return f.op(kind.String()+"_remove", func() error { return f.inner.Remove(name) }, func(s *FSStats, _ time.Duration) {
		if kind == kindSeg {
			s.SegRemoved++
		}
	})
}

func (f *TimingFS) ReadDir() ([]string, error) {
	var names []string
	err := f.op("dir_read", func() (err error) {
		names, err = f.inner.ReadDir()
		return err
	}, noCount)
	return names, err
}

func (f *TimingFS) SyncDir() error {
	return f.op("dir_sync", f.inner.SyncDir, func(s *FSStats, d time.Duration) {
		s.DirSyncCount++
		s.DirSync += d
	})
}

type timingFile struct {
	segio.File
	fs      *TimingFS
	kind    fileKind
	created bool // opened by Create (a rotation or a segment) rather than for append
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.op(t.kind.String()+"_write", func() (err error) {
		n, err = t.File.Write(p)
		return err
	}, func(s *FSStats, _ time.Duration) {
		switch {
		case t.kind == kindWAL && t.created:
			s.WALRotateBytes += int64(n)
		case t.kind == kindWAL:
			s.WALAppendBytes += int64(n)
		case t.kind == kindSeg:
			s.SegWriteBytes += int64(n)
		}
	})
	return n, err
}

func (t *timingFile) Sync() error {
	return t.fs.op(t.kind.String()+"_sync", t.File.Sync, func(s *FSStats, d time.Duration) {
		switch t.kind {
		case kindWAL:
			s.WALSyncCount++
			s.WALSync += d
		case kindSeg:
			s.SegSync += d
		}
	})
}

func (t *timingFile) Close() error {
	return t.fs.op(t.kind.String()+"_close", t.File.Close, noCount)
}
