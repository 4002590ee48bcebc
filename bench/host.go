package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything the harness writes: scratch spools and journals
// while a run lasts, span files afterwards. It is relative to the working
// directory, which is bench/ under `go run -C bench .`, so every byte stays
// inside the checkout.
const outDir = "out"

// hostFacts is the line written with every result, so two result sets can
// be told apart when they were not measured on the same machine or build.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s scratch_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), headCommit(".."), fsType("."))
}

// headCommit reads the checkout's HEAD without running git; a checkout that
// is not a repository (the driver's) reads "unknown".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// scratchDir creates a fresh directory under out/ for one run's spools and
// journals. The caller removes it.
func scratchDir(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", outDir, err)
	}
	dir, err := os.MkdirTemp(outDir, "scratch-"+workload+"-")
	if err != nil {
		return "", fmt.Errorf("create scratch dir: %w", err)
	}
	return dir, nil
}

// meter is a snapshot of the process-wide resource counters a timed phase
// is charged against.
type meter struct {
	at         time.Time
	cpu        time.Duration
	totalAlloc uint64
	mallocs    uint64
	gcCPU      float64
	syscw      uint64
	wchar      uint64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	m := meter{
		cpu:        cpuTime(),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCPU:      gcCPUSample[0].Value.Float64(),
	}
	m.syscw, m.wchar = procIO()
	m.at = time.Now()
	return m
}

// procIO reads the write-side counters of /proc/self/io (0, 0 where the
// file is missing).
func procIO() (syscw, wchar uint64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscw":
			syscw = n
		case "wchar":
			wchar = n
		}
	}
	return syscw, wchar
}

// usage is the difference between two meters over ops operations.
type usage struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCPUFrac  float64
	syscw      uint64
	wchar      uint64
}

func (m meter) since(start meter) usage {
	u := usage{
		wall:       m.at.Sub(start.at),
		cpu:        m.cpu - start.cpu,
		allocBytes: m.totalAlloc - start.totalAlloc,
		mallocs:    m.mallocs - start.mallocs,
		syscw:      m.syscw - start.syscw,
		wchar:      m.wchar - start.wchar,
	}
	if u.cpu > 0 {
		u.gcCPUFrac = (m.gcCPU - start.gcCPU) / u.cpu.Seconds()
	}
	return u
}

// heapAfterGC returns the live heap after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// removeScratch deletes a run's scratch directory.
func removeScratch(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: remove scratch: %v\n", err)
	}
}
