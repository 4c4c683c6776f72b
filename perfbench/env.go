package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// envStamp names the machine and the source every number came from.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the git commit of the checkout, or "unknown" outside a
	// git repository; SourceSHA256 identifies the source either way.
	Commit       string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func stampEnv() envStamp {
	return envStamp{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest("."),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD, bounded to a few seconds.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root (in path
// order, skipping hidden directories), so a result names its code even
// where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	slices.Sort(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		_, _ = h.Write([]byte(filepath.ToSlash(p)))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
