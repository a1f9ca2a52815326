package hyrisenv

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleVets builds the benchmark, a module of its own that
// `./...` from the root never compiles, with `go vet` — offline, outside
// any workspace, with the toolchain running this test. The benchmark
// calls internal packages by name (storage.OpenNVMTable, pstruct.NewVector,
// DB.Engine, ...), so a change that renames or drops one of them fails
// here and not only in `make benchmark-module`.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module")
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "-C", "benchmark", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local", "GOFLAGS=-mod=readonly")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
