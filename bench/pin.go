package bench

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. On a small box the scheduler moving the load generator
// and the server between cores is the largest source of run-to-run noise
// (a sizing probe read ±12 % on ingest_spans_per_s unpinned, ±5 % pinned),
// so the load generator keeps the first CPU it is allowed and the server
// child gets the rest. Everything here is best effort: where the kernel
// refuses (a restrictive cpuset, one CPU) the run proceeds unpinned.

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func getAffinity(tid int) (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func setAffinity(tid int, m cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return errno == 0
}

// placement is the split of the allowed CPUs between the two processes.
type placement struct {
	all, loadgen, server cpuMask
	ok                   bool
}

func planPlacement() placement {
	var p placement
	all, ok := getAffinity(0)
	if !ok {
		return p
	}
	p.all = all
	first := true
	n := 0
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if !all.has(cpu) {
			continue
		}
		n++
		if first {
			p.loadgen.set(cpu)
			first = false
		} else {
			p.server.set(cpu)
		}
	}
	p.ok = n >= 2
	return p
}

// pinProcess moves every thread of this process onto the mask; threads
// created later inherit it from the thread that creates them.
func pinProcess(m cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			setAffinity(tid, m)
		}
	}
}

// startPinned runs start (which forks the server child) on a thread
// confined to the server's CPUs, so the child inherits that confinement,
// and then gives the thread its own mask back.
func (p placement) startPinned(start func() error) error {
	if !p.ok {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if own, ok := getAffinity(0); ok && setAffinity(0, p.server) {
		defer setAffinity(0, own)
	}
	return start()
}
