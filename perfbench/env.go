package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// benchEnv records what a run's numbers depend on, so figures are only
// compared between runs on the same machine and code.
type benchEnv struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	DataFS     string
}

func describeEnv(dataDir string) benchEnv {
	return benchEnv{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		DataFS:     fsType(dataDir),
	}
}

func (e benchEnv) write(w io.Writer) {
	fmt.Fprintf(w, "cpu: %s; nproc %d; GOMAXPROCS %d; %s\n", e.CPU, e.NumCPU, e.GOMAXPROCS, e.GoVersion)
	fmt.Fprintf(w, "code: %s; data dir filesystem: %s\n", e.Commit, e.DataFS)
}

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

// commit names the measured code: the VCS revision when the binary was
// built in a git checkout, otherwise a sha256 over the module's Go
// sources and go.mod, which identifies the tree just as well.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return "commit " + s.Value
			}
		}
	}
	h, n, err := treeHash(".")
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return fmt.Sprintf("source tree sha256 %.16s (%d files)", h, n)
}

func treeHash(root string) (string, int, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), len(files), nil
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("magic %#x", st.Type)
}
