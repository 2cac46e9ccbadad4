package main

import (
	"bufio"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask: 1024 CPUs.
type cpuMask [16]uint64

// setAffinity applies mask to every thread of the process. A new thread
// inherits the mask of the thread that created it, so a second pass catches
// threads born during the first.
func setAffinity(mask *cpuMask) bool {
	ok := false
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return false
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
			ok = ok || errno == 0
		}
	}
	return ok
}

// bindOneCPU confines the process to the first CPU it is allowed on, so the
// benchmark measures one core's worth of the program whatever the box has,
// and with singleP also sets GOMAXPROCS to 1. It returns that CPU (−1 where
// the kernel refused, and the run goes on unbound) and how to undo both.
//
// Measured on the 2-vCPU box this was frozen on, identical runs interleaved.
// Paced tier, both vCPUs open: the kernel either packs the tier's threads on
// one vCPU or spreads them over two, and CPU per window is 10 or 14 s per
// million by which it chose; bound to one CPU it is 10.8–11.3. (There
// GOMAXPROCS stays at its default: with one P the figure ranged 9.4–11.3
// and latency_p50_ms 2.64–3.05 against 2.76–2.85.) Closed loops: their one
// goroutine leaves a second P idle, which then runs garbage-collector
// workers beside it — engine-batch collects 137 times a second — and its
// rate moved 7% and its CPU per window 10% between runs; with one P and one
// CPU, 1.6% and 1.5%, and the operation's p99 fell from 1.2 ms to 0.8 ms.
func bindOneCPU(singleP bool) (cpu int, restore func()) {
	var old cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(old), uintptr(unsafe.Pointer(&old)))
	cpu = -1
	if errno == 0 {
		for w, word := range old {
			if word != 0 {
				cpu = w*64 + bits.TrailingZeros64(word)
				break
			}
		}
	}
	if cpu >= 0 {
		var one cpuMask
		one[cpu/64] = 1 << (cpu % 64)
		if !setAffinity(&one) {
			cpu = -1
		}
	}
	procs := runtime.GOMAXPROCS(0)
	if singleP {
		runtime.GOMAXPROCS(1)
	}
	return cpu, func() {
		runtime.GOMAXPROCS(procs)
		if cpu >= 0 {
			setAffinity(&old)
		}
	}
}

// cpuSeconds returns the process's user+system CPU time so far. It reads
// CLOCK_PROCESS_CPUTIME_ID, the scheduler's own nanosecond accounting, not
// getrusage: rusage is sampled at the timer tick, and the paced workloads
// run in 10 µs bursts that a timer starts, so sampling them aliased (their
// CPU per window moved ±20% between identical runs).
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssMeter reads the resident-set high-water mark a stretch at a time: each
// take returns the mark since the last one and restarts it, and peak is the
// highest mark of the process so far — VmHWM as if it had never been
// restarted. Where the kernel refuses the restart every take reads the
// whole-process mark. A nil meter reads and restarts without keeping.
type rssMeter struct{ highest float64 }

func (m *rssMeter) take() float64 {
	mb := peakRSSMB()
	if m != nil {
		m.highest = max(m.highest, mb)
	}
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5: reset VmHWM
	return mb
}

func (m *rssMeter) peak() float64 { return max(m.highest, peakRSSMB()) }

// cpuTicks returns the machine-wide steal and total jiffies from the
// aggregate "cpu" line of /proc/stat; the steal delta over a run tells a
// noisy hour on a shared box from a change in the code.
func cpuTicks() (steal, total float64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sleeper parks its goroutine until a deadline on the kernel's
// high-resolution timers. time.Sleep is not enough for a 1.25 ms schedule:
// when a Go process goes idle its timers are served by epoll_wait, whose
// timeout is whole milliseconds, so wake-ups land up to 1 ms late (measured
// here: generator lag p99 1.2 ms). A timerfd registered with the runtime
// poller wakes on the event itself (p99 0.3 ms). Neither spins.
type sleeper struct {
	f   *os.File // nil when the kernel refused a timerfd: fall back to time.Sleep
	raw syscall.RawConn
}

func newSleeper() *sleeper {
	const clockMonotonic, nonblockCloexec = 1, 0x800 | 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	f := os.NewFile(fd, "timerfd")
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return &sleeper{}
	}
	return &sleeper{f: f, raw: raw}
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}

// until sleeps until t; it returns at once if t has passed.
func (s *sleeper) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if s.f != nil && s.arm(d) {
		var expirations [8]byte
		if _, err := s.f.Read(expirations[:]); err == nil {
			return
		}
	}
	time.Sleep(time.Until(t))
}

// arm sets the timer to fire once, d from now.
func (s *sleeper) arm(d time.Duration) bool {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // struct itimerspec{interval, value}
	var errno syscall.Errno
	err := s.raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	})
	return err == nil && errno == 0
}
