package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

const schedLatencies = "/sched/latencies:seconds"

// rtSnap is a snapshot of the Go runtime counters the benchmark reports.
type rtSnap struct {
	mallocs    uint64
	totalAlloc uint64
	pauseNS    uint64
	gcCycles   uint32
	sched      *metrics.Float64Histogram
}

// readRT stops the world briefly (runtime.ReadMemStats) for exact
// allocation counts, then reads the scheduler latency histogram.
func readRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(s)
	snap := rtSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, pauseNS: ms.PauseTotalNs, gcCycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		snap.sched = s[0].Value.Float64Histogram()
	}
	return snap
}

// histQuantile returns the q-quantile of the counts that b added over a,
// taking each bucket's upper boundary (its lower one for the unbounded top
// bucket), and the number of samples added.
func histQuantile(a, b *metrics.Float64Histogram, q float64) (float64, uint64) {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0, 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > rank {
			hi := b.Buckets[i+1]
			if hi > 1e300 { // +Inf top bucket
				hi = b.Buckets[i]
			}
			return hi, total
		}
	}
	return b.Buckets[len(b.Buckets)-1], total
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// procCPU returns the CPU time (user + system) all threads of the process
// have consumed. The kernel does not charge a virtual machine's steal time
// to it, so on a shared host it measures the program's work, where wall
// time also measures the neighbours.
func procCPU() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time of the calling OS thread; callers lock
// their goroutine to its thread first. It reads the clock rather than
// getrusage(RUSAGE_THREAD), which lags the running thread by up to a
// scheduler tick.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp is a moment in both wall-clock and process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func stampNow() stamp { return stamp{time.Now(), procCPU()} }

// cost is the wall and process CPU time between two stamps.
type cost struct{ wall, cpu time.Duration }

func (s stamp) until(e stamp) cost { return cost{e.wall.Sub(s.wall), e.cpu - s.cpu} }

func (s stamp) elapsed() cost { return s.until(stampNow()) }
