package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machine identifies the box a result was measured on, so results from
// different hosts (or different GOMAXPROCS) are never compared silently.
type machine struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPU        string            `json:"cpu"`
	Caches     map[string]string `json:"caches"`
	LLCBytes   int64             `json:"llc_bytes"`
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
}

func readMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Caches:     map[string]string{},
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" {
			continue
		}
		m.Caches["L"+level+strings.ToLower(typ[:min(1, len(typ))])] = size
		if b := parseCacheSize(size); b > m.LLCBytes {
			m.LLCBytes = b
		}
	}
	if m.LLCBytes == 0 {
		m.LLCBytes = 32 << 20 // sysfs unavailable: assume a 32 MiB LLC
	}
	return m
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseCacheSize reads sysfs sizes such as "32768K" or "1M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// streamProbe measures single-thread STREAM-copy bandwidth in GB/s (read
// plus write bytes over time, the STREAM convention) for a working set of
// total bytes split across a source and a destination buffer. It reports
// the best of reps passes: a ceiling, not a typical rate.
func streamProbe(total int64, reps int) float64 {
	n := int(total / 2)
	src := make([]byte, n)
	dst := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the pages in before timing
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		copy(dst, src)
		if secs := time.Since(start).Seconds(); secs > 0 {
			if gbps := 2 * float64(n) / secs / 1e9; gbps > best {
				best = gbps
			}
		}
	}
	return best
}

// ceilings holds the two probe results: a working set that fits the LLC
// (the training factors and the serving catalogs here do) and one at
// least four times the LLC.
type ceilings struct {
	L3GBps, DRAMGBps float64
	LLCBytes         int64
}

func probeCeilings(llc int64) ceilings {
	l3 := llc / 8 // comfortably resident, yet far larger than L2
	if l3 < 1<<20 {
		l3 = 1 << 20
	}
	return ceilings{
		L3GBps:   streamProbe(l3, 200),
		DRAMGBps: streamProbe(4*llc, 8),
		LLCBytes: llc,
	}
}

// forWorkingSet picks the ceiling a stage streaming workingSet bytes is
// judged against.
func (c ceilings) forWorkingSet(workingSet float64) float64 {
	if workingSet <= float64(c.LLCBytes) {
		return c.L3GBps
	}
	return c.DRAMGBps
}
