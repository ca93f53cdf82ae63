package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// envSteps is the program's own always-on count of env transitions taken by
// training rollouts; a pass's steps are its difference over the run.
var envSteps = obs.DefaultRegistry().Counter("pfrl_env_steps_total",
	"environment steps taken by training rollouts")

// meter measures one run: wall clock, process CPU, heap allocation, GC and
// the peak heap, the last sampled every 2ms.
type meter struct {
	start time.Time
	cpu0  time.Duration
	host0 hostTicks
	ms0   runtime.MemStats
	step0 uint64

	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

// runStats is what a meter measured.
type runStats struct {
	Run      time.Duration
	CPU      time.Duration
	Alloc    uint64
	PeakHeap uint64
	GCCycles uint32
	GCPause  time.Duration
	Steps    int64
	// Steal is the share of the host's CPU time the hypervisor gave to
	// other guests during the run (-1 when unknown). It explains wall-clock
	// shifts between runs that process CPU time does not show.
	Steal float64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks are the system-wide CPU time counters of /proc/stat.
type hostTicks struct{ steal, total uint64 }

func readHostTicks() (hostTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}, false
	}
	var t hostTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startMeter starts measuring; the caller's setup is over.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	m.peak = m.ms0.HeapAlloc
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if h := heapInUse(s); h > m.peak {
					m.peak = h
				}
			}
		}
	}()
	m.step0 = envSteps.Value()
	m.host0, _ = readHostTicks()
	m.cpu0 = processCPU()
	m.start = time.Now()
	return m
}

// finish stops the meter at the run's final result.
func (m *meter) finish() runStats {
	run := time.Since(m.start)
	cpu := processCPU() - m.cpu0
	steps := int64(envSteps.Value() - m.step0)
	steal := -1.0
	if t, ok := readHostTicks(); ok && t.total > m.host0.total {
		steal = float64(t.steal-m.host0.steal) / float64(t.total-m.host0.total)
	}
	close(m.stop)
	m.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := m.peak
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}
	return runStats{
		Run:      run,
		CPU:      cpu,
		Alloc:    ms.TotalAlloc - m.ms0.TotalAlloc,
		PeakHeap: peak,
		GCCycles: ms.NumGC - m.ms0.NumGC,
		GCPause:  time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs),
		Steps:    steps,
		Steal:    steal,
	}
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile p (0 < p < 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many of n samples lie strictly past the nearest-rank
// percentile p.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// digest is a SHA-256 over the exact bits of a pass's outputs.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) floats(xs ...float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
	d.h.Write(b[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d digest) text(s string) { d.h.Write([]byte(s)) }

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func payloadDigest(p []float64) string {
	d := newDigest()
	d.floats(p...)
	return d.sum()
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
