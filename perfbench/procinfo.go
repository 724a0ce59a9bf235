package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runHeader describes the machine and inputs of one run.
type runHeader struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	JournalFS  string `json:"journal_fs"`
}

func header(e *env) runHeader {
	return runHeader{
		Workload:   e.workload,
		Seed:       e.seed,
		Trace:      e.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		JournalFS:  fsType(e.runDir),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	sc := bufio.NewScanner(strings.NewReader(readFile("/proc/cpuinfo")))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// derive makes a sub-seed from the workload seed, a purpose tag and an
// index, so every generated input hangs off --seed alone.
func derive(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// digest is a short hash of labels or picks.
type digest struct{ h []byte }

func (d *digest) bools(v []bool) {
	b := make([]byte, len(v))
	for i, x := range v {
		if x {
			b[i] = 1
		}
	}
	d.h = append(d.h, b...)
	d.h = append(d.h, '|')
}

func (d *digest) ints(v ...int) {
	for _, x := range v {
		d.h = strconv.AppendInt(d.h, int64(x), 10)
		d.h = append(d.h, ',')
	}
	d.h = append(d.h, '|')
}

func (d *digest) String() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:8])
}

func boolsDigest(v []bool) string {
	var d digest
	d.bools(v)
	return d.String()
}

// cpuTime is the calling process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSSMB is the calling process's peak resident set (getrusage).
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procHWMMB is a process's peak resident set (VmHWM), in MiB.
func procHWMMB(pid int) float64 {
	sc := bufio.NewScanner(strings.NewReader(readFile(fmt.Sprintf("/proc/%d/status", pid))))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	b := []byte(readFile(fmt.Sprintf("/proc/%d/stat", pid)))
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick
}

// procWriteBytes is write_bytes from /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer.
func procWriteBytes(pid int) int64 {
	sc := bufio.NewScanner(strings.NewReader(readFile(fmt.Sprintf("/proc/%d/io", pid))))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}
