package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer puts one goroutine to sleep with the kernel's timer precision.
// Go's own timers wake an otherwise idle process with millisecond
// resolution, which would add up to a millisecond of generator
// lateness to every open-loop operation. A timerfd is a file the
// runtime's poller watches, and fd readiness wakes the poller at once.
// Linux only.
type pacer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte // the expiry count a read returns; unused
}

const clockMonotonic = 1

type itimerspec struct {
	interval, value syscall.Timespec
}

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "pacer"), fd: fd}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() { p.f.Close() }
