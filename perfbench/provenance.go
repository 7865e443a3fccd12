package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// provenance identifies what a result record measured and where.
type provenance struct {
	GitCommit  string         `json:"git_commit"`
	GitDirty   *bool          `json:"git_dirty"`
	SourceHash string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
	StartedAt  string         `json:"started_at"`
}

func collectProvenance(e *env, w *workload) provenance {
	p := provenance{
		GoVersion: goruntime.Version(), GOOS: goruntime.GOOS, GOARCH: goruntime.GOARCH,
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Workload: w.name, Why: w.why, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Params: w.params, StartedAt: time.Now().UTC().Format(time.RFC3339),
		GitCommit: "unknown", SourceHash: sourceHash("."),
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		p.GitCommit = strings.TrimSpace(out)
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			dirty := strings.TrimSpace(st) != ""
			p.GitDirty = &dirty
		}
	}
	return p
}

// git runs a read-only git query in the working directory. A checkout
// without git history answers with an error, and the record says unknown.
func git(args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", args...).Output()
	return string(out), err
}

// sourceHash hashes the Go sources and module files under root, skipping
// hidden directories (build output), so a record names the code it
// measured even where there is no git history.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
