package segio

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"xsp/internal/trace"
)

// SegmentFile is one segment file open for reading a window of records at a
// time (trace.BlockFile): what it keeps resident is the payload's layout
// and string blob. On a ReadAtFS it holds a read handle, which keeps
// reading after a compaction removes the file's name; on any other FS a
// pass over the file reads it whole, once, and lets go of it with the pass.
// The caller closes it once nothing reads it.
type SegmentFile struct {
	trace.BlockFile
	id   uint64
	name string
	fs   FS
	ra   ReadAtCloser // nil: the FS reads files only whole

	mu   sync.Mutex
	kept []byte // a whole-read file's bytes, read in before its name went (Keep)
}

// OpenSegment opens segment file id for reading in windows. It reads the
// header and the payload's layout, not its records; Open has validated the
// file whole, or the store has just written it.
func (st *Store) OpenSegment(id uint64) (*SegmentFile, error) {
	f := &SegmentFile{id: id, name: segName(id), fs: st.fs}
	if rfs, ok := st.fs.(ReadAtFS); ok {
		ra, err := rfs.OpenRead(f.name)
		if err != nil {
			return nil, err
		}
		f.ra = ra
	}
	r := f.Pass()
	var hdr [segHeaderLen]byte
	err := readAt(r, hdr[:], 0)
	if err == nil && (string(hdr[:8]) != segMagic || binary.LittleEndian.Uint32(hdr[8:]) != formatVersion) {
		err = fmt.Errorf("%w: bad segment header", ErrCorrupt)
	}
	if err == nil {
		f.BlockFile, err = trace.OpenBlockFile(r, segHeaderLen, int64(binary.LittleEndian.Uint64(hdr[12:])))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segio: open %s: %w", f.name, err)
	}
	return f, nil
}

// ID returns the segment's file id.
func (f *SegmentFile) ID() uint64 { return f.id }

// Pass returns what one pass over the file reads its windows through: the
// handle, or a reader that reads the file whole on first use and is let go
// of with the pass.
func (f *SegmentFile) Pass() io.ReaderAt {
	if f.ra != nil {
		return f.ra
	}
	return &wholePass{f: f}
}

// Keep readies the file to be read after its name is removed: nothing to do
// with a handle, and the bytes read in now without one.
func (f *SegmentFile) Keep() error {
	if f.ra != nil {
		return nil
	}
	data, err := f.whole()
	if err == nil {
		f.mu.Lock()
		f.kept = data
		f.mu.Unlock()
	}
	return err
}

// Close releases the handle, or the kept bytes.
func (f *SegmentFile) Close() error {
	f.mu.Lock()
	f.kept = nil
	f.mu.Unlock()
	if f.ra != nil {
		return f.ra.Close()
	}
	return nil
}

// whole returns the file's bytes: kept ones, or read now.
func (f *SegmentFile) whole() ([]byte, error) {
	f.mu.Lock()
	kept := f.kept
	f.mu.Unlock()
	if kept != nil {
		return kept, nil
	}
	return f.fs.ReadFile(f.name)
}

// wholePass is one pass over a file an FS reads only whole.
type wholePass struct {
	f    *SegmentFile
	data []byte
	err  error
	read bool
}

func (p *wholePass) ReadAt(b []byte, off int64) (int, error) {
	if !p.read {
		p.read = true
		p.data, p.err = p.f.whole()
	}
	if p.err != nil {
		return 0, p.err
	}
	if off >= int64(len(p.data)) {
		return 0, io.EOF
	}
	n := copy(b, p.data[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// readAt reads len(p) bytes at off, the end of the file no error when it
// comes right behind them.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	_, err := io.ReadFull(io.NewSectionReader(r, off, int64(len(p))), p)
	return err
}
