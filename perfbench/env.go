package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envRecord describes the machine and source one run measured, so a noisy
// run shows as such instead of being averaged away.
type envRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"` // digest of the netfi Go sources
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	StealS     float64 `json:"env.steal_s"` // hypervisor steal during the run
}

func newEnvRecord(cfg config, steal float64) envRecord {
	return envRecord{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds.Seconds(),
		Trace:      cfg.Trace,
		Commit:     cfg.Commit,
		Source:     sourceDigest(cfg.Root),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StealS:     steal,
	}
}

// stealSeconds reads the machine-wide steal time from /proc/stat: CPU time
// the hypervisor gave to other guests while this one had work. 0 where
// unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/,
// identifying the measured code where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			return
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(data)
	}
	add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				add(path)
			}
			return nil // an unreadable entry leaves the digest partial, not the run failed
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
