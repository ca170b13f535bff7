package faultfs

import (
	"errors"
	"testing"
)

func TestUnsyncedDataLostOnCrash(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("durable"))
	f.Sync()
	f.Write([]byte("-volatile"))
	f.Close()
	fs.SyncDir()

	rec := fs.Recovered()
	got, err := rec.ReadFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("recovered %q, want only the synced prefix", got)
	}
}

func TestNamesDurableOnlyAfterSyncDir(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("x"))
	f.Sync()
	f.Close()
	// No SyncDir: the name itself is not durable.
	if _, err := fs.Recovered().ReadFile("a"); err == nil {
		t.Fatal("file name survived crash without SyncDir")
	}
	fs.SyncDir()
	if _, err := fs.Recovered().ReadFile("a"); err != nil {
		t.Fatalf("file name lost despite SyncDir: %v", err)
	}
}

func TestRenameAtomicAcrossCrash(t *testing.T) {
	fs := New()
	f, _ := fs.Create("tmp")
	f.Write([]byte("new"))
	f.Sync()
	f.Close()
	fs.SyncDir()
	fs.Rename("tmp", "final")
	// Crash before the rename is synced: durable view still has "tmp".
	rec := fs.Recovered()
	if _, err := rec.ReadFile("final"); err == nil {
		t.Fatal("rename visible before SyncDir")
	}
	if got, _ := rec.ReadFile("tmp"); string(got) != "new" {
		t.Fatalf("old name content = %q", got)
	}
	fs.SyncDir()
	rec = fs.Recovered()
	if got, _ := rec.ReadFile("final"); string(got) != "new" {
		t.Fatalf("new name content = %q", got)
	}
	if _, err := rec.ReadFile("tmp"); err == nil {
		t.Fatal("old name still present after durable rename")
	}
}

func TestCrashPlanStopsOps(t *testing.T) {
	fs := New()
	fs.Arm(Plan{CrashAfter: 2})
	f, err := fs.Create("a") // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil { // op 2
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // op 3: crashed
		t.Fatalf("op past crash point = %v, want ErrCrashed", err)
	}
	if _, err := fs.Create("b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() = false after crash point")
	}
}

func TestDropSyncKeepsAckingButNotPersisting(t *testing.T) {
	fs := New()
	fs.Arm(Plan{CrashAfter: 1 << 30, DropSync: true})
	f, _ := fs.Create("a")
	f.Write([]byte("x"))
	if err := f.Sync(); err != nil {
		t.Fatalf("lying disk must ack the sync: %v", err)
	}
	f.Close()
	fs.SyncDir()
	if _, err := fs.Recovered().ReadFile("a"); err == nil {
		t.Fatal("DropSync leaked data to durable state")
	}
}

func TestTornModeKeepsPartialTail(t *testing.T) {
	fs := New()
	fs.Arm(Plan{CrashAfter: 1 << 30, Mode: ModeTorn})
	f, _ := fs.Create("a")
	f.Write([]byte("dur"))
	f.Sync()
	f.Close()
	fs.SyncDir()
	f2, _ := fs.OpenAppend("a")
	f2.Write([]byte("able-tail"))
	f2.Close()
	got, err := fs.Recovered().ReadFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= len("dur") || len(got) >= len("durable-tail") {
		t.Fatalf("torn recovery = %q, want a strict partial tail", got)
	}
}

// A WriteAt before Sync is one more unsynced write: a clean crash loses it
// with the rest of the unsynced tail, a torn one keeps part of that tail,
// the patch in it; after Sync it is durable. A WriteAt into the synced
// prefix makes the file durable only up to its offset again.
func TestWriteAtIsUnsyncedUntilSync(t *testing.T) {
	write := func(mode Mode, sync bool) []byte {
		fs := New()
		fs.Arm(Plan{CrashAfter: 1 << 30, Mode: mode})
		f, _ := fs.Create("a")
		f.Write([]byte("head"))
		f.Sync()
		f.Write([]byte("....-body"))
		if n, err := f.WriteAt([]byte("HEAD"), 4); n != 4 || err != nil {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
		if sync {
			f.Sync()
		}
		f.Close()
		fs.SyncDir()
		got, err := fs.Recovered().ReadFile("a")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := write(ModeClean, false); string(got) != "head" {
		t.Fatalf("clean crash before Sync recovered %q, want only the synced prefix", got)
	}
	if got := write(ModeTorn, false); string(got) != "headHEAD-" {
		t.Fatalf("torn crash before Sync recovered %q, want half the unsynced tail, patched", got)
	}
	if got := write(ModeClean, true); string(got) != "headHEAD-body" {
		t.Fatalf("after Sync recovered %q", got)
	}

	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("durable"))
	f.Sync()
	f.WriteAt([]byte("DUR"), 0)
	f.Close()
	fs.SyncDir()
	if got, _ := fs.Recovered().ReadFile("a"); len(got) != 0 {
		t.Fatalf("a WriteAt into the synced prefix, unsynced, recovered %q, want nothing past offset 0", got)
	}
}
