package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prima"
	"prima/internal/obs"
)

// counters is everything the harness reads at a phase boundary: Go runtime
// statistics and the database's metrics registry (which mirrors the buffer
// pool, atom cache, plan cache, WAL, device and wire counters).
type counters struct {
	at  time.Time
	mem runtime.MemStats
	db  *obs.MetricsSnapshot
}

func readCounters(db *prima.DB) counters {
	c := counters{at: time.Now(), db: db.Metrics()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// processCPU returns the user plus system CPU time of the process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is the change of the counters over one phase.
type delta struct{ from, to counters }

// n returns the increase of one registry counter. The device counters can
// step backwards when a recycled WAL segment takes its share with it; such a
// step reads as 0.
func (d delta) n(name string) float64 {
	a, b := d.from.db.Counter(name), d.to.db.Counter(name)
	if b < a {
		return 0
	}
	return float64(b - a)
}

func (d delta) mallocs() float64 { return float64(d.to.mem.Mallocs - d.from.mem.Mallocs) }
func (d delta) gcPause() time.Duration {
	return time.Duration(d.to.mem.PauseTotalNs - d.from.mem.PauseTotalNs)
}

// ratio returns hits/(hits+misses), or 0 when both are 0.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
