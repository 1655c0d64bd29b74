package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viator/internal/lint"
)

// writeModule materializes a throwaway single-package module so the
// escape check can run the real compiler against it.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func escapeDiags(t *testing.T, src string) []lint.Diagnostic {
	t.Helper()
	dir := writeModule(t, src)
	_, targets, err := lint.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := lint.EscapeCheck(dir, targets)
	if err != nil {
		t.Fatalf("EscapeCheck: %v", err)
	}
	return diags
}

// TestEscapeCheckCatchesAllocation is the acceptance gate from the
// contract: deliberately breaking a //viator:noalloc function must fail
// lint.
func TestEscapeCheckCatchesAllocation(t *testing.T) {
	diags := escapeDiags(t, `package scratch

//viator:noalloc
func Broken(n int) []int {
	return make([]int, n)
}
`)
	if len(diags) == 0 {
		t.Fatal("EscapeCheck reported nothing for a noalloc function that allocates")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "Broken") && strings.Contains(d.Message, "escape analysis reports") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic names Broken; got %v", diags)
	}
}

// TestEscapeCheckPassesCleanFunction: an allocation-free hot loop and a
// reasoned alloc-ok cold path both survive; an unannotated allocating
// neighbor is not reported either (the contract is opt-in per function).
func TestEscapeCheckPassesCleanFunction(t *testing.T) {
	diags := escapeDiags(t, `package scratch

//viator:noalloc
func Sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

//viator:noalloc
func Grow(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n) //viator:alloc-ok amortized growth, steady state reuses buf
	}
	return buf[:n]
}

func unannotated(n int) []int {
	return make([]int, n)
}
`)
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics, got %v", diags)
	}
}

// TestDeadAPICheckReadsWholeModule pins the standalone pass's scope:
// linting one internal package still collects references from every
// non-test file of the module, so a function only another package calls
// is not reported, while one only a test calls is.
func TestDeadAPICheckReadsWholeModule(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"main.go": `package main

import "scratch/internal/a"

func main() { println(a.Used()) }
`,
		"internal/a/a.go": `package a

func Used() int { return 1 }

func TestOnly() int { return 2 }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { _ = TestOnly() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, targets, err := lint.Load(dir, []string{"./internal/a"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := lint.DeadAPICheck(targets)
	if err != nil {
		t.Fatalf("DeadAPICheck: %v", err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "TestOnly is exported but") {
		t.Fatalf("want one finding for TestOnly, got %v", diags)
	}
}
