package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine and the code a result was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, with
	// "+modified" for a dirty tree, or "unknown" when the build saw none.
	Commit string `json:"commit"`
}

func currentHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, idle, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	// user nice system idle iowait irq softirq steal guest guest_nice; guest
	// time is already included in user and nice.
	for i, f := range fields[1:] {
		if i >= 8 {
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		switch i {
		case 3, 4:
			t.idle += v
		case 7:
			t.steal = v
		}
	}
	return t
}

// clockTicks is the unit of /proc/stat: USER_HZ, 100 on Linux.
const clockTicks = 100

// stealShares returns the share of all CPU time between a and b that the
// hypervisor gave to other guests, and its share of the CPU time this VM
// asked for (busy plus stolen; an idle vCPU asks for none).
func stealShares(a, b cpuTicks) (all, demand float64) {
	total, idle, steal := b.total-a.total, b.idle-a.idle, b.steal-a.steal
	if b.total <= a.total {
		return 0, 0
	}
	all = float64(steal) / float64(total)
	// An interval too short for the ticks to show any CPU time granted to
	// the VM has no measurable demand share.
	if total-idle > steal {
		demand = float64(steal) / float64(total-idle)
	}
	return all, demand
}

// loadAvg1 is the one-minute load average.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _, _ := strings.Cut(string(data), " ")
	v, _ := strconv.ParseFloat(f, 64)
	return v
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS watermark, so the next peakRSSMiB covers only what follows.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the watermark then covers the process lifetime
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// noise records how busy the host was around one sample.
type noise struct {
	Steal       float64 `json:"steal_frac"`
	DemandSteal float64 `json:"demand_steal_frac"`
	Stolen      float64 `json:"stolen_cpu_s"` // vCPU-seconds given to other guests
	Load1       float64 `json:"load1"`
}

// noiseMeter measures the host's steal share over an interval.
type noiseMeter struct{ t0 cpuTicks }

func startNoise() noiseMeter { return noiseMeter{t0: readCPUTicks()} }

func (m noiseMeter) stop() noise {
	t1 := readCPUTicks()
	all, demand := stealShares(m.t0, t1)
	return noise{Steal: all, DemandSteal: demand, Stolen: float64(t1.steal-m.t0.steal) / clockTicks, Load1: loadAvg1()}
}
