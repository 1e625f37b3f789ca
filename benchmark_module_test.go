package repro

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleCompiles vets the end-to-end benchmark against the
// packages as they are now. benchmark/ is a module of its own that
// `go test ./...` does not reach, and its traced replay drives
// internal/datalog and internal/service by hand (NewIncremental, Check,
// DeleteContext, InsertContext, LastDelta, MergeDeltas, Database.Fork, …),
// so without this a signature change under internal/ passes tier-1 and
// breaks the benchmark pipeline instead.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on a second module")
	}
	if out, err := exec.Command("go", "vet", "-C", "benchmark", ".").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C benchmark .: %v\n%s", err, out)
	}
}
