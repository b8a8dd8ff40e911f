package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
)

// host is the fingerprint stamped on every result record: results from
// different hosts (or a host whose GF kernel path differs) must never
// be compared silently.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	AVX2       bool   `json:"avx2"` // selects the GF(2^16) SIMD kernel path
	Revision   string `json:"revision"`
}

func fingerprint() host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: obs.GetBuildInfo().Revision,
	}
	if h.Revision == "" {
		h.Revision = "unknown" // built outside a VCS checkout
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			h.CPU = strings.TrimSpace(val)
		case "flags":
			h.AVX2 = strings.Contains(" "+val+" ", " avx2 ")
			return h // the first processor's block is enough
		}
	}
	return h
}

// selfCPU is the benchmark process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux configuration Go supports).
const clockTicks = 100

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB; pid 0
// reads the benchmark process itself.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuTicks reads the host-wide CPU counters from /proc/stat: the steal
// ticks (time the hypervisor ran something else while this guest had
// work) and all ticks. A run's steal share tells apart a slow build
// from a starved machine; it is recorded, never corrected for.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...]:
	// guest time is already inside user, so the total stops at steal.
	if len(f) < 9 {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total
}
