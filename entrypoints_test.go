package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// entryPoints are the programs the suite ships: the gbench binaries
// (gbench worker included), the benchmark referee and the two
// examples. Every internal package must be reachable from one of them;
// a package only its own tests import is code the benchmark never runs.
var entryPoints = []string{"./cmd/...", "./benchmark", "./examples/..."}

func TestEveryInternalPackageHasAnEntryPoint(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(goBin, append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{}
	for _, pkg := range list(append([]string{"-deps"}, entryPoints...)...) {
		reached[pkg] = true
	}
	for _, pkg := range list("./internal/...") {
		if !reached[pkg] {
			t.Errorf("%s is imported by no entry point (%s)", pkg, strings.Join(entryPoints, " "))
		}
	}
}
