// Package allocpin is the shared test helper for the zero-allocation
// contract. A pin has two halves that must agree:
//
//   - the static half: the pinned function carries //viator:noalloc,
//     which viatorlint verifies against the compiler's escape analysis
//     (internal/lint, escape.go);
//   - the dynamic half: testing.AllocsPerRun over a steady-state
//     workload observes zero allocations.
//
// Zero enforces both at once — it fails if a named target function is
// not annotated in the package's sources, so a pin cannot silently
// drift away from the statically-verified contract.
//
// Max is for the few paths with a small constant allocation budget
// (e.g. one packet struct per send); those are measured but carry no
// annotation, because noalloc means zero.
package allocpin

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"viator/internal/lint"
)

// Zero asserts that fn performs zero heap allocations per run and that
// every named target function is annotated //viator:noalloc in the
// calling package's sources (the test's working directory). Targets use
// the lint display form: "Func", "Type.Method" or "(*Type).Method".
//
//viator:api test-support package: only _test.go files call it
func Zero(t *testing.T, runs int, fn func(), targets ...string) {
	t.Helper()
	if len(targets) == 0 {
		t.Fatal("allocpin.Zero: name at least one //viator:noalloc target the pin covers")
	}
	annotated := packageNoAllocFuncs(t)
	for _, target := range targets {
		if !annotated[target] {
			t.Fatalf("allocpin.Zero: %s is not annotated //viator:noalloc in this package (annotated: %s)",
				target, strings.Join(sortedKeys(annotated), ", "))
		}
	}
	if n := testing.AllocsPerRun(runs, fn); n != 0 {
		t.Errorf("allocpin.Zero: %g allocs/run, want 0 (pinned: %s)", n, strings.Join(targets, ", "))
	}
}

// Max asserts that fn performs at most max heap allocations per run.
// Unlike Zero it requires no annotation: a bounded budget is a
// measurement, not a noalloc contract.
//
//viator:api test-support package: only _test.go files call it
func Max(t *testing.T, runs int, max float64, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(runs, fn); n > max {
		t.Errorf("allocpin.Max: %g allocs/run, want <= %g", n, max)
	}
}

var (
	noallocMu    sync.Mutex
	noallocCache = map[string]map[string]bool{} // dir -> display name set
)

// packageNoAllocFuncs parses the non-test Go files in the working
// directory (the package under test) and returns the display names of
// all //viator:noalloc functions, cached per directory.
func packageNoAllocFuncs(t *testing.T) map[string]bool {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("allocpin: %v", err)
	}
	noallocMu.Lock()
	defer noallocMu.Unlock()
	if set, ok := noallocCache[dir]; ok {
		return set
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("allocpin: %v", err)
	}
	set := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("allocpin: parsing %s: %v", name, err)
		}
		for _, fn := range lint.CollectNoAllocFuncs(fset, f) {
			set[fn.Name] = true
		}
	}
	noallocCache[dir] = set
	return set
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
