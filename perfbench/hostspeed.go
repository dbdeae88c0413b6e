package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// The host's speed drifts. On a shared host the hypervisor takes CPU
// time from the VM (steal), and the time a fixed piece of work takes on
// the CPU moves by a tenth or more between minutes as neighbours come
// and go (shared caches, sibling hyperthreads). Between identical runs
// this moved peak_ops_s by up to a third: as much as a change to the
// code would. hostSpeed measures a fixed kernel that uses none of the
// repository's code — SHA-256 over a 1 KiB buffer, one goroutine per
// CPU, for hostSpeedProbe — before every window and slice of a phase
// and after the last. A phase's figures are scaled by the mean reading
// against referenceSpeed, so they read as if measured on a host that
// runs the kernel at that speed; the raw figures and the readings are
// printed next to them.
const (
	hostSpeedProbe = 150 * time.Millisecond
	quietSpan      = 20 * time.Millisecond
	quietWait      = time.Second
	// referenceSpeed is the kernel's rate (hashes per second on each
	// CPU) on the 2-core x86-64 host the rates and depths in
	// workloads.go were set on.
	referenceSpeed = 1.1e6
	// rusageThread is Linux's RUSAGE_THREAD, which package syscall
	// does not name.
	rusageThread = 1
)

// hostReading is one run of the kernel, in hashes per second per CPU.
// wall counts wall-clock time: it drops when the hypervisor takes CPU
// time and is the speed for wall-clock figures (peak_ops_s). cpu counts
// the CPU time the kernel's threads got: it is the speed for CPU-time
// figures (cpu_us_per_op), which steal does not lengthen.
type hostReading struct {
	wall, cpu float64
}

// hostSpeed runs the kernel once. A garbage collection or a backlog
// left by the window or slice before must not slow the kernel down, so
// it holds collections off while it runs (disabling them first waits
// for a running one to end) and waits, for at most quietWait, until the
// process has been nearly idle for a quietSpan.
func hostSpeed() hostReading {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for deadline := time.Now().Add(quietWait); time.Now().Before(deadline); {
		c0 := cpuTime()
		time.Sleep(quietSpan)
		if cpuTime()-c0 < quietSpan/5 {
			break
		}
	}
	n := runtime.GOMAXPROCS(0)
	counts := make([]int, n)
	cpus := make([]time.Duration, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cpu0 := threadCPUTime()
			var buf [1024]byte
			buf[0] = byte(i)
			c := 0
			for time.Since(t0) < hostSpeedProbe {
				for k := 0; k < 16; k++ {
					s := sha256.Sum256(buf[:])
					buf[s[1]] = s[0]
				}
				c += 16
			}
			counts[i], cpus[i] = c, threadCPUTime()-cpu0
		}(i)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	total, cpu := 0, time.Duration(0)
	for i := range counts {
		total += counts[i]
		cpu += cpus[i]
	}
	r := hostReading{wall: float64(total) / el / float64(n), cpu: float64(total) / cpu.Seconds()}
	if cpu <= 0 { // no per-thread CPU clock
		r.cpu = r.wall
	}
	return r
}

// threadCPUTime is the CPU time of the calling OS thread.
func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func meanSpeed(rs []hostReading) hostReading {
	var m hostReading
	for _, r := range rs {
		m.wall += r.wall / float64(len(rs))
		m.cpu += r.cpu / float64(len(rs))
	}
	return m
}
