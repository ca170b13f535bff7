// Package faultfs is an in-memory segio.FS that models crash semantics
// exactly: file content becomes durable only up to the last File.Sync,
// the namespace (creations, renames, removals) becomes durable only at
// SyncDir, and a crash can be injected after any numbered operation. It
// exists so the durability tests can kill the store at every write point
// and assert that recovery from the surviving durable state is exact.
//
// The intended protocol:
//
//  1. Run the workload once against an unarmed FS and read Ops() — the
//     total operation count T.
//  2. For each crash point c in [0, T), run the workload on a fresh FS
//     armed with Plan{CrashAfter: c}; every operation past the first c
//     fails with ErrCrashed.
//  3. Call Recovered() to get the durable view a rebooted process would
//     see, and drive recovery against it.
//
// Modes make the surviving state adversarial: ModeTorn lets the most
// recently written file keep half of its unsynced tail (a torn write the
// checksums must catch), ModeBitFlip flips one bit inside the last
// durable file (at-rest corruption). DropSync makes every File.Sync a
// silent no-op, modeling a lying disk: operations keep succeeding but
// the durable prefix stops advancing.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"syscall"

	"xsp/internal/segio"
)

// ErrCrashed is returned by every operation at and after the injected
// crash point.
var ErrCrashed = errors.New("faultfs: simulated crash")

// Mode selects how unsynced data behaves at the crash.
type Mode int

const (
	// ModeClean loses all unsynced data: every file survives exactly to
	// its last Sync.
	ModeClean Mode = iota
	// ModeTorn additionally keeps half of the unsynced tail of the most
	// recently written file — a torn write.
	ModeTorn
	// ModeBitFlip flips one bit in the middle of the last durably written
	// file — at-rest corruption that only checksums can catch.
	ModeBitFlip
)

// Plan arms a crash: the first CrashAfter operations succeed, everything
// after fails with ErrCrashed. Counted operations are Create, OpenAppend,
// Write, WriteAt, Sync, Rename, Remove, and SyncDir; reads and Close are free
// (they don't advance the clock).
type Plan struct {
	CrashAfter int
	Mode       Mode
	// DropSync makes File.Sync succeed without making anything durable.
	DropSync bool
	// FailReadsFrom, when positive, fails read FailReadsFrom — counting
	// ReadFile and every ReadAt from 1 — and every read after it with EIO.
	FailReadsFrom int
}

type inode struct {
	data   []byte
	synced int
}

// FS is the fault-injectable filesystem. The zero value is not usable;
// call New.
type FS struct {
	mu      sync.Mutex
	vol     map[string]*inode // the live (process-visible) namespace
	dur     map[string]*inode // namespace as of the last SyncDir
	ops     int
	reads   int // reads so far: ReadFile and ReadAt calls
	opened  int // read handles open
	armed   bool
	plan    Plan
	crashed bool
	last    *inode // most recently written inode, for ModeTorn
	lastDur *inode // most recently synced inode, for ModeBitFlip
}

var _ segio.ReadAtFS = (*FS)(nil)

// New returns an empty, unarmed FS (behaves like a normal in-memory fs).
func New() *FS {
	return &FS{vol: make(map[string]*inode), dur: make(map[string]*inode)}
}

// Arm installs a crash plan. The operation counter keeps running from
// where it is; arm a fresh FS for reproducible crash points.
func (f *FS) Arm(p Plan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	f.plan = p
}

// Ops returns the number of mutating operations performed so far.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Reads returns the number of reads performed so far.
func (f *FS) Reads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// OpenReads returns the number of read handles not yet closed.
func (f *FS) OpenReads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opened
}

// read numbers one read and decides whether it fails. Callers hold f.mu.
func (f *FS) read(name string) error {
	f.reads++
	if f.armed && f.plan.FailReadsFrom > 0 && f.reads >= f.plan.FailReadsFrom {
		return fmt.Errorf("faultfs: read %q: %w", name, syscall.EIO)
	}
	return nil
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step numbers one mutating operation and decides whether it executes.
// Callers hold f.mu.
func (f *FS) step() error {
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.armed && f.ops > f.plan.CrashAfter {
		f.crashed = true
		return ErrCrashed
	}
	return nil
}

// Recovered returns the durable state as a fresh unarmed FS — what a
// process rebooting after the crash would find. Unsynced content is
// dropped (or kept torn / bit-flipped per the armed Mode), and names
// revert to the last SyncDir.
func (f *FS) Recovered() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := New()
	for name, ino := range f.dur {
		keep := ino.synced
		if f.armed && f.plan.Mode == ModeTorn && ino == f.last && keep < len(ino.data) {
			keep += (len(ino.data) - keep + 1) / 2
		}
		out.vol[name] = &inode{data: append([]byte(nil), ino.data[:keep]...), synced: keep}
	}
	if f.armed && f.plan.Mode == ModeBitFlip && f.lastDur != nil {
		for name, ino := range f.dur {
			if ino == f.lastDur {
				if rec := out.vol[name]; rec != nil && len(rec.data) > 0 {
					rec.data[len(rec.data)/2] ^= 0x10
				}
			}
		}
	}
	for name, ino := range out.vol {
		out.dur[name] = ino
	}
	return out
}

// Corrupt flips one bit at off in name's content, bypassing the
// operation clock — for at-rest corruption tests on a healthy FS.
func (f *FS) Corrupt(name string, off int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.vol[name]
	if !ok || off < 0 || off >= len(ino.data) {
		return fmt.Errorf("faultfs: cannot corrupt %q at %d", name, off)
	}
	ino.data[off] ^= 0x01
	return nil
}

type file struct {
	fs  *FS
	ino *inode
}

func (f *FS) Create(name string) (segio.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	ino := &inode{}
	f.vol[name] = ino
	return &file{fs: f, ino: ino}, nil
}

func (f *FS) OpenAppend(name string) (segio.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return nil, err
	}
	ino, ok := f.vol[name]
	if !ok {
		ino = &inode{}
		f.vol[name] = ino
	}
	return &file{fs: f, ino: ino}, nil
}

func (fl *file) Write(p []byte) (int, error) {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if err := fl.fs.step(); err != nil {
		return 0, err
	}
	fl.ino.data = append(fl.ino.data, p...)
	fl.fs.last = fl.ino
	return len(p), nil
}

// WriteAt is one more unsynced write: it overwrites p at off (past the end,
// it extends the file), and a crash before the next Sync loses it or keeps
// it torn as it does a Write. A write into the synced prefix makes the file
// durable only up to off again.
func (fl *file) WriteAt(p []byte, off int64) (int, error) {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if err := fl.fs.step(); err != nil {
		return 0, err
	}
	if end := int(off) + len(p); end > len(fl.ino.data) {
		fl.ino.data = append(fl.ino.data, make([]byte, end-len(fl.ino.data))...)
	}
	copy(fl.ino.data[off:], p)
	fl.ino.synced = min(fl.ino.synced, int(off))
	fl.fs.last = fl.ino
	return len(p), nil
}

func (fl *file) Sync() error {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if err := fl.fs.step(); err != nil {
		return err
	}
	if fl.fs.armed && fl.fs.plan.DropSync {
		return nil // the lying disk: ack the fsync, persist nothing
	}
	fl.ino.synced = len(fl.ino.data)
	fl.fs.lastDur = fl.ino
	return nil
}

func (fl *file) Close() error {
	fl.fs.mu.Lock()
	defer fl.fs.mu.Unlock()
	if fl.fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.vol[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %q: file does not exist", name)
	}
	if err := f.read(name); err != nil {
		return nil, err
	}
	return append([]byte(nil), ino.data...), nil
}

// OpenRead opens name for ranged reads. The handle reads the file's inode,
// not its name: it keeps reading what the file holds after the name is
// removed or renamed over.
func (f *FS) OpenRead(name string) (segio.ReadAtCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ino, ok := f.vol[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %q: file does not exist", name)
	}
	f.opened++
	return &reader{fs: f, ino: ino, name: name}, nil
}

type reader struct {
	fs     *FS
	ino    *inode
	name   string
	closed bool
}

func (r *reader) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("faultfs: read %q: handle closed", r.name)
	}
	if err := r.fs.read(r.name); err != nil {
		return 0, err
	}
	if off < 0 || off >= int64(len(r.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *reader) Close() error {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.fs.opened--
	}
	return nil
}

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	ino, ok := f.vol[oldname]
	if !ok {
		return fmt.Errorf("faultfs: rename %q: file does not exist", oldname)
	}
	f.vol[newname] = ino
	delete(f.vol, oldname)
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	if _, ok := f.vol[name]; !ok {
		return fmt.Errorf("faultfs: remove %q: file does not exist", name)
	}
	delete(f.vol, name)
	return nil
}

func (f *FS) ReadDir() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.vol))
	for n := range f.vol {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (f *FS) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.step(); err != nil {
		return err
	}
	if f.armed && f.plan.DropSync {
		return nil
	}
	f.dur = make(map[string]*inode, len(f.vol))
	for n, ino := range f.vol {
		f.dur[n] = ino
	}
	return nil
}
