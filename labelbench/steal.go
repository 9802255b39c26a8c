package main

// Measurement windows. labeld and the benchmark share a VM whose CPUs the
// hypervisor also lends to other guests; while it does, /proc/stat's steal
// counter grows, both processes stall, and every timing moves by tens of
// percent. A phase is therefore cut into short windows: a window in which
// the VM lost more than maxStealFrac of its CPU time (beyond the phase's
// median, capped at maxBaseSteal) counts as disturbed, and the phase runs until it has collected
// its duration in undisturbed windows, stretching to at most maxStretch times the duration. Metrics
// come from the requests that completed inside undisturbed windows; every
// request is still checked.

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	windowLen    = 500 * time.Millisecond
	maxStealFrac = 0.03
	maxBaseSteal = 0.01
	maxStretch   = 2
)

// window is one slice of a phase, as offsets from the phase's start.
type window struct {
	start, end time.Duration
	clean      bool
}

// readSteal returns the VM's cumulative steal time; ok is false where
// /proc/stat does not report one.
func readSteal() (time.Duration, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * 10 * time.Millisecond, true // /proc/stat counts in USER_HZ = 100
}

// watchWindows cuts the phase that began at t0 into windows until dur of
// undisturbed time has been collected or maxStretch×dur has passed, then
// closes stop. A window is disturbed when its steal share exceeds the
// phase's median share, capped at maxBaseSteal, by more than maxStealFrac:
// fsync'd writes make the VM's own I/O show up as steal, and that part
// belongs to the workload, but a host busy for most of the phase must not
// raise the bar with it.
// When the VM was disturbed nearly throughout, every window is measured
// rather than too few.
func watchWindows(t0 time.Time, dur time.Duration, stop chan<- struct{}) []window {
	defer close(stop)
	cpus := float64(runtime.NumCPU())
	prev, ok := readSteal()
	var ws []window
	var shares []float64 // per window; negative when unknown
	var last time.Duration
	classify := func() time.Duration {
		var known []float64
		for _, f := range shares {
			if f >= 0 {
				known = append(known, f)
			}
		}
		limit := min(median(known), maxBaseSteal) + maxStealFrac
		var clean time.Duration
		for i := range ws {
			ws[i].clean = shares[i] <= limit
			if ws[i].clean {
				clean += ws[i].end - ws[i].start
			}
		}
		return clean
	}
	tick := time.NewTicker(windowLen)
	defer tick.Stop()
	for range tick.C {
		now := time.Since(t0)
		cur, curOK := readSteal()
		share := -1.0
		if ok && curOK {
			share = float64(cur-prev) / (cpus * float64(now-last))
		}
		ws = append(ws, window{start: last, end: now})
		shares = append(shares, share)
		prev, ok, last = cur, curOK, now
		if classify() >= dur || now >= maxStretch*dur {
			break
		}
	}
	if classify() < dur/maxStretch {
		for i := range ws {
			ws[i].clean = true
		}
	}
	return ws
}

func (p *phaseResult) cleanWindows() int {
	n := 0
	for _, w := range p.windows {
		if w.clean {
			n++
		}
	}
	return n
}
