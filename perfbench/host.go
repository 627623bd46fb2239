package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostStamp identifies the code, machine and build a report came from.
type hostStamp struct {
	Commit     string
	Tree       string
	CPU        string
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Kernels    string
	Seed       int64
}

func stamp(source string, seed int64) hostStamp {
	h := hostStamp{
		Commit:     "unknown",
		Tree:       treeDigest(source),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernels:    kernelBuild(),
		Seed:       seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// treeDigest hashes the module's Go sources and go.mod (sorted by path),
// identifying the code under test where no commit is recorded.
func treeDigest(root string) string {
	if root == "" {
		return "unknown"
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuInfo(field string) string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == field {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := cpuInfo("model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

// kernelBuild reports which CS kernels the binary runs: the amd64
// assembly (AVX) or the portable scalar loops (purego build tag, other
// architectures, or a CPU without AVX).
func kernelBuild() string {
	purego := false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-tags" && strings.Contains(","+s.Value+",", ",purego,") {
				purego = true
			}
		}
	}
	switch {
	case purego:
		return "purego"
	case runtime.GOARCH != "amd64":
		return "purego (" + runtime.GOARCH + ")"
	case !strings.Contains(" "+cpuInfo("flags")+" ", " avx "):
		return "scalar (no AVX)"
	}
	return "avx"
}
