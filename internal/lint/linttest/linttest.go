// Package linttest is an analysistest-style harness for the viatorlint
// analyzers. A fixture is a directory of Go source files (under a
// testdata tree, so the go tool never builds it) annotated with
// expectation comments:
//
//	for k := range m { // want `range over map`
//
// Run parses and type-checks the fixture as a package with a
// caller-chosen import path — which is how a fixture opts in to (or out
// of) the deterministic-package scope — runs the given analyzers, and
// fails the test unless the reported diagnostics and the // want
// expectations match exactly, line by line.
//
// Each // want comment holds one or more backquoted or double-quoted
// regular expressions; every expectation on a line must be matched by a
// distinct diagnostic on that line, and every diagnostic must satisfy
// some expectation.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"viator/internal/lint"
)

// Run loads the fixture directory as a package named importPath and
// checks the analyzers' diagnostics against the fixture's // want
// expectations.
//
//viator:api test-support package: only _test.go files call it
func Run(t *testing.T, dir, importPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}

	var exports map[string]string
	if imports := importSet(files); len(imports) > 0 {
		exports, err = lint.ExportData(".", imports...)
		if err != nil {
			t.Fatalf("linttest: export data: %v", err)
		}
	}
	tpkg, info, err := lint.CheckFiles(importPath, fset, files, exports)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	diags, err := lint.Analyze(fset, files, tpkg, info, importPath, analyzers)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	wants, err := collectWants(fset, files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	check(t, fset, diags, wants)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importSet gathers the distinct import paths of the fixture files —
// all standard library, since fixtures cannot import module packages
// (their own import path is fictional).
func importSet(files []*ast.File) []string {
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err == nil {
				seen[p] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// A want is one expectation: a regexp that must match a diagnostic
// reported on its line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// wantRE matches the expectation comment and captures an optional line
// offset plus the pattern list. The offset form (`// want:+1 ...`) is
// for diagnostics that land on comment lines — an annotation-grammar
// finding is positioned at the //viator: comment itself, and a line
// comment cannot carry a second comment.
var wantRE = regexp.MustCompile(`// want(:[+-]\d+)? (.*)$`)

// patRE matches one backquoted or double-quoted pattern.
var patRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(fset *token.FileSet, files []*ast.File) ([]*want, error) {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1][1:])
				}
				pats := patRE.FindAllString(m[2], -1)
				if len(pats) == 0 {
					return nil, fmt.Errorf("%s: // want with no quoted pattern", pos)
				}
				for _, p := range pats {
					var expr string
					if p[0] == '`' {
						expr = p[1 : len(p)-1]
					} else {
						var err error
						expr, err = strconv.Unquote(p)
						if err != nil {
							return nil, fmt.Errorf("%s: bad pattern %s: %v", pos, p, err)
						}
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						return nil, fmt.Errorf("%s: bad pattern %s: %v", pos, p, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line + offset, re: re, raw: expr})
				}
			}
		}
	}
	return wants, nil
}

func check(t *testing.T, fset *token.FileSet, diags []lint.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
