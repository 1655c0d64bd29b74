package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// EscapeCheck verifies every //viator:noalloc function in the given
// packages against the compiler's escape analysis: it re-parses the
// package sources to collect annotated functions, runs
//
//	go build -gcflags=-m <pkgs...>
//
// and reports any heap-allocation decision ("escapes to heap" /
// "moved to heap") positioned inside an annotated function body that is
// not covered by a //viator:alloc-ok <reason> line. Unlike a
// testing.AllocsPerRun pin — which only sees the path a benchmark
// happens to exercise, three PRs later — this fails the lint job the
// moment a new allocation site appears anywhere in the pinned function.
//
// Scope: the check is per-function-body (textual allocation sites). A
// callee that allocates is caught when it is annotated too, which is
// why every function on a pinned hot chain carries the marker; the
// runtime allocpin pins remain as the end-to-end backstop.
//
// The build cache replays compiler diagnostics, so repeated runs are
// cheap. pkgs are package patterns relative to dir (a module
// directory); compiler positions are module-root-relative and are
// resolved against dir.
func EscapeCheck(dir string, pkgs []*Package) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var (
		targets  []NoAllocFunc
		patterns []string
	)
	for _, p := range pkgs {
		var fns []NoAllocFunc
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("escape: %v", err)
			}
			fns = append(fns, collectNoAllocFuncs(fset, f)...)
		}
		if len(fns) > 0 {
			targets = append(targets, fns...)
			patterns = append(patterns, p.ImportPath)
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}

	out, err := compilerDiag(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Index annotated functions by absolute file path.
	byFile := map[string][]NoAllocFunc{}
	for _, fn := range targets {
		abs, _ := filepath.Abs(fn.File)
		byFile[abs] = append(byFile[abs], fn)
	}

	var diags []Diagnostic
	for _, d := range out {
		if !strings.Contains(d.msg, "escapes to heap") && !strings.Contains(d.msg, "moved to heap") {
			continue
		}
		abs := d.file
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, abs)
		}
		for _, fn := range byFile[abs] {
			if d.line < fn.StartLine || d.line > fn.EndLine || fn.AllocOK[d.line] {
				continue
			}
			diags = append(diags, Diagnostic{
				Analyzer: "noalloc",
				Message: fmt.Sprintf("%s:%d:%d: %s is marked //viator:noalloc but escape analysis reports %q; remove the allocation or annotate the line //viator:alloc-ok <reason>",
					d.file, d.line, d.col, fn.Name, d.msg),
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Message < diags[j].Message })
	return diags, nil
}

type escDiag struct {
	file      string
	line, col int
	msg       string
}

var diagRE = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

// compilerDiag runs the compiler with -m over the patterns and parses
// its position-prefixed diagnostics.
func compilerDiag(dir string, patterns []string) ([]escDiag, error) {
	args := append([]string{"build", "-gcflags=-m"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("escape: go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	var diags []escDiag
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, escDiag{file: m[1], line: ln, col: col, msg: m[4]})
	}
	return diags, nil
}
