package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostInfo identifies where and on what a result was measured, so that
// figures from different hosts or trees are never compared silently.
type hostInfo struct {
	NProc int `json:"nproc"`
	// GOMAXPROCS per process: the load generator, each mbserve, and the
	// in-process traced replay.
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	// Commit is the VCS revision the benchmark was built at, when the
	// build saw one; a checkout without VCS metadata records
	// "unknown". Tree is a hash of the Go sources, which tells parent
	// and change apart either way.
	Commit string `json:"commit"`
	Tree   string `json:"tree"`
}

// Generator and traced replay GOMAXPROCS: one thread keeps the
// generator light, and a one-thread replay makes span durations add up.
const (
	generatorGOMAXPROCS = 1
	replayGOMAXPROCS    = 1
)

func hostCPUs() int { return runtime.NumCPU() }

func hostFingerprint(root string, servers int) hostInfo {
	procs := map[string]int{"loadgen": generatorGOMAXPROCS, "replay": replayGOMAXPROCS}
	for i := range servers {
		procs[fmt.Sprintf("mbserve-%d", i)] = serverGOMAXPROCS()
	}
	return hostInfo{
		NProc:      hostCPUs(),
		GOMAXPROCS: procs,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     vcsRevision(),
		Tree:       treeHash(root),
	}
}

func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// treeHash hashes every .go file under root (path and content, in path
// order), skipping hidden and build directories. It returns a short hex
// prefix, or "unknown" if the tree cannot be read.
func treeHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
