package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibraryErrorPrintsOnePrefix runs the command on a program whose goal
// is not an IDB predicate. The library's error already starts with
// "datalog: ", so the command must print it without adding a second one.
func TestLibraryErrorPrintsOnePrefix(t *testing.T) {
	if prog := os.Getenv("DATALOG_TEST_PROGRAM"); prog != "" {
		// The child: run the command itself, which exits.
		os.Args = []string{"datalog", "-program", prog}
		main()
		return
	}
	prog := filepath.Join(t.TempDir(), "p.dl")
	if err := os.WriteFile(prog, []byte("S(x, y) :- E(x, y).\ngoal Q.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLibraryErrorPrintsOnePrefix$")
	cmd.Env = append(os.Environ(), "DATALOG_TEST_PROGRAM="+prog)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	if got, want := strings.TrimSpace(stderr.String()), "datalog: goal predicate Q is not an IDB"; got != want {
		t.Fatalf("stderr %q, want %q", got, want)
	}
}
