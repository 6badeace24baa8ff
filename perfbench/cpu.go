package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host-time metrics are CPU time, not wall time. On a
// shared host the hypervisor takes the vCPUs away for stretches of
// seconds (steal), which stretches wall time by as much as the
// neighbours load the host; a kernel with paravirtual steal accounting
// leaves stolen time out of a process's CPU time, so CPU time moves with
// the work the benchmark does. Wall-time throughput and the share of
// time stolen are reported beside them (host.wall_ops_per_s,
// host.steal_pct).

const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID

// processCPU returns the CPU time, user and system, that all of the
// process's threads have used.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuMeter attributes the process's CPU time to the operations in
// flight. Between two consecutive starts or ends of operations, the CPU
// time the process used is shared equally among the operations running
// then. With one operation at a time that is exactly its CPU time,
// garbage collection and helper goroutines included; with two workers
// it splits what both used while they overlapped. CPU time used while no
// operation runs goes to none.
type cpuMeter struct {
	mu     sync.Mutex
	last   time.Duration
	active map[int64]time.Duration
}

// advance shares the CPU time used since the last event among the
// operations in flight, at process CPU time now. Call it with mu held.
func (m *cpuMeter) advance(now time.Duration) {
	if n := len(m.active); n > 0 {
		share := (now - m.last) / time.Duration(n)
		for op, d := range m.active {
			m.active[op] = d + share
		}
	}
	m.last = now
}

// start and stop read the clock under mu, so events are shared out in
// the order their times were read.
func (m *cpuMeter) start(op int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.startAt(op, processCPU())
}

// stop ends op and returns the CPU time attributed to it.
func (m *cpuMeter) stop(op int64) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopAt(op, processCPU())
}

// startAt and stopAt are start and stop at a given process CPU time.
// Call them with mu held.
func (m *cpuMeter) startAt(op int64, now time.Duration) {
	m.advance(now)
	if m.active == nil {
		m.active = map[int64]time.Duration{}
	}
	m.active[op] = 0
}

func (m *cpuMeter) stopAt(op int64, now time.Duration) time.Duration {
	m.advance(now)
	d := m.active[op]
	delete(m.active, op)
	return d
}

// cpuTicks is the host's aggregate CPU line from /proc/stat: all ticks,
// and those stolen by the hypervisor.
type cpuTicks struct{ total, steal uint64 }

// readTicks returns zero ticks where /proc/stat cannot be read.
func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of the vCPUs' time between a and b that the
// hypervisor gave to something else, in percent.
func stealPct(a, b cpuTicks) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
