package segio

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the flat-namespace filesystem the store writes through. The
// indirection exists so the crash-injection harness (faultfs) can sit
// underneath the store and fail, tear, or lose any write — the store's
// durability argument is proven against that layer, and the OS
// implementation merely has to match its contract:
//
//   - File contents become durable only after File.Sync.
//   - Names (creations, renames, removals) become durable only after
//     SyncDir.
//   - Rename is atomic: after a crash the name maps to either the old or
//     the new file, never a mix.
//
// The namespace is flat — one directory, no subpaths — which keeps the
// crash semantics of directory metadata tractable to model exactly.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically renames oldname to newname, replacing it.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists the file names in the root, sorted.
	ReadDir() ([]string, error)
	// SyncDir makes the namespace (creations, renames, removals) durable.
	SyncDir() error
}

// ReadAtFS is an FS that also opens files for ranged reads, which is how a
// segment is read in windows rather than whole (see SegmentFile). A handle
// follows POSIX unlink semantics: it keeps reading a file a later Remove
// took the name of, until it is closed. DirFS and faultfs implement it; any
// other FS's segments are read whole, once per pass.
type ReadAtFS interface {
	FS
	OpenRead(name string) (ReadAtCloser, error)
}

// ReadAtCloser is a read handle ReadAtFS.OpenRead returns.
type ReadAtCloser interface {
	io.ReaderAt
	io.Closer
}

// File is a writable file handle. Writes are buffered by the OS until
// Sync; a crash may lose or truncate anything unsynced. WriteAt patches
// bytes already written — a segment's header, once its payload is out —
// and is no more durable than Write until Sync.
type File interface {
	io.Writer
	io.WriterAt
	Sync() error
	Close() error
}

// DirFS returns the production FS rooted at dir, creating dir if needed.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &osFS{root: dir}, nil
}

type osFS struct{ root string }

func (f *osFS) path(name string) string { return filepath.Join(f.root, name) }

func (f *osFS) Create(name string) (File, error) {
	return os.OpenFile(f.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (f *osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(f.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (f *osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(f.path(name)) }

func (f *osFS) OpenRead(name string) (ReadAtCloser, error) { return os.Open(f.path(name)) }

func (f *osFS) Rename(oldname, newname string) error {
	return os.Rename(f.path(oldname), f.path(newname))
}

func (f *osFS) Remove(name string) error { return os.Remove(f.path(name)) }

func (f *osFS) ReadDir() ([]string, error) {
	ents, err := os.ReadDir(f.root)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *osFS) SyncDir() error {
	d, err := os.Open(f.root)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
