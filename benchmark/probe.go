package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machine-speed probe. On the shared two-core sandbox the same code
// takes 15-50% longer or shorter from one minute to the next, and not the
// same on both cores (a single-threaded pairing loop on an otherwise idle
// box: 1.9 to 3.9 ms per pairing over 10 s windows; the kernel reports no
// steal), and every time-based metric of every workload moves with it. A
// run therefore times a small fixed kernel of its own on every CPU, every
// 50 ms for as long as it measures, and states its time-based end-to-end
// metrics for the speed at which that kernel takes referenceKernel. The
// kernel lives here, calls nothing in the repository and touches no memory,
// so no change to the program can move it.

// referenceKernel is the probe kernel's CPU time on this box on a good
// minute.
const referenceKernel = 500 * time.Microsecond

// probeExponent is how much of the kernel's stretch the program shares. The
// kernel is nothing but dependent multiplies, the code a busy sibling
// hyperthread hurts most; the program also waits on memory, hashes with SHA
// instructions and sits in the socket layer. Fitted: over 20 runs each at
// machine speeds from 0.75 to 1.4, log cpu_ms_per_op against log kernel time
// has slope 0.79 on bls4_write, 0.73 on hmac4_write and 0.66 on
// hmac4_bundle, and 0.8 leaves the smallest pooled spreads on all three.
const probeExponent = 0.8

const probePeriod = 50 * time.Millisecond

// probeKernel is multiply-add chains over four limbs, the shape of the
// BN254 field arithmetic: integer work a busy sibling hyperthread slows
// down, which hardware SHA (2% spread over the same minutes) does not see.
func probeKernel() uint64 {
	a := [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d}
	var acc [4]uint64
	for i := 0; i < 60000; i++ {
		var c uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a[j], a[(j+i)&3]|1)
			var cc uint64
			acc[j], cc = bits.Add64(acc[j], lo, c)
			c = hi + cc
		}
		a[i&3] ^= acc[(i+1)&3]
	}
	return acc[0]
}

// threadCPU is the calling thread's CPU time. It excludes the time the
// thread waited for a core, which on a saturated box is most of the wall
// time, and unlike getrusage it is not sampled at the timer tick.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // the clock id is valid on every Linux
	}
	return time.Duration(ts.Nano())
}

// cpuMask is a sched_setaffinity mask.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// speedProbe runs the kernel every probePeriod on one pinned thread per CPU
// until finish.
type speedProbe struct {
	stop  chan struct{}
	means chan time.Duration
	cpus  int
}

func startProbe() (*speedProbe, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{stop: make(chan struct{}), means: make(chan time.Duration, len(cpus)), cpus: len(cpus)}
	for _, cpu := range cpus {
		go p.sample(cpu)
	}
	return p, nil
}

func (p *speedProbe) sample(cpu int) {
	// Never unlocked: the thread's affinity is changed, so it must end with
	// this goroutine and not go back to the scheduler's pool.
	runtime.LockOSThread()
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		panic(errno) // cpu came from this process's own mask
	}
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	var total time.Duration
	var sink uint64 // keeps the kernel's result alive
	n := 0
	for {
		start := threadCPU()
		sink += probeKernel()
		total += threadCPU() - start
		n++
		select {
		case <-p.stop:
			runtime.KeepAlive(sink)
			p.means <- total / time.Duration(n)
			return
		case <-tick.C:
		}
	}
}

// finish stops the probe and returns the machine's speed over its lifetime
// as a share of the reference speed — the mean over CPUs of how fast each
// ran the kernel, to the power probeExponent — and the kernel's mean time.
// A speed of 0.8 means the program's CPU-bound steps took 1/0.8 as long as
// the end-to-end metrics are stated for.
func (p *speedProbe) finish() (speed float64, kernel time.Duration) {
	close(p.stop)
	for i := 0; i < p.cpus; i++ {
		k := <-p.means
		speed += float64(referenceKernel) / float64(k) / float64(p.cpus)
		kernel += k / time.Duration(p.cpus)
	}
	return math.Pow(speed, probeExponent), kernel
}
