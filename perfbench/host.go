package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// host fingerprints the machine a result was measured on. Results are
// only comparable between equal fingerprints.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
}

func (h host) String() string {
	return "cpu=" + strconv.Quote(h.CPU) + " nproc=" + strconv.Itoa(h.NProc) +
		" gomaxprocs=" + strconv.Itoa(h.GOMAXPROCS) + " go=" + h.Go + " gogc=" + h.GOGC
}

// currentHost pins GOMAXPROCS to at most nproc (the benchmark is one
// process with at most nproc threads) and returns the fingerprint.
func currentHost() host {
	n := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	pct := debug.SetGCPercent(100)
	debug.SetGCPercent(pct)
	gogc := strconv.Itoa(pct)
	if pct < 0 {
		gogc = "off"
	}
	return host{
		CPU:        cpuModel(),
		NProc:      n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOGC:       gogc,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, falling back
// to the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
