// Package lint is viator's project-specific static-analysis suite. It
// mechanically enforces the two contracts ARCHITECTURE.md states in
// prose: the byte-identical determinism contract (no map-iteration
// order, wall clock, global RNG or environment may leak into simulation
// behavior; every float comparator needs a total-order tie-break) and
// the zero-allocation contract on pinned hot paths. It also keeps the
// exported surface of internal/ packages equal to what something runs.
//
// The suite is deliberately self-contained: it is built on the standard
// library's go/ast + go/types only (no golang.org/x/tools dependency),
// with a small analyzer framework mirroring the go/analysis API shape.
// Two drivers run the analyzers:
//
//   - a unitchecker-compatible driver (unit.go) speaking the protocol
//     `go vet -vettool=$(viatorlint)` expects, so CI vets every package
//     — including test variants — with build-system caching;
//   - a standalone loader (load.go) used by `viatorlint ./...`, which
//     shells out to `go list -export` for package metadata and export
//     data, and which additionally runs two checks a modular vet unit
//     cannot: the escape-analysis-backed //viator:noalloc verification
//     (escape.go; it needs to invoke the compiler) and the deadapi pass
//     (deadapi.go; it needs every package of the module).
//
// Analyzers (see DeterministicPackages for scope):
//
//	maporder  range over a map in a deterministic package must be
//	          provably order-insensitive or annotated
//	walltime  no time.Now/Since, math/rand, or env reads in
//	          deterministic packages; RNG must be kernel-seeded
//	tiebreak  float-only sort comparators need a secondary key
//	noalloc   //viator:noalloc functions must survive escape analysis
//	          with no heap allocation sites (plus annotation grammar)
//	deadapi   standalone only, not in Analyzers: every exported function
//	          or method of an internal/ package needs a reference from a
//	          non-test file of the module, counted over the whole module
//	          whatever the patterns; methods that satisfy an interface
//	          count as referenced
//
// Annotation grammar (annot.go): //viator:<directive> [reason]. The
// suppression forms (maporder-safe, walltime-ok, tiebreak-safe,
// alloc-ok, api) require a non-empty reason; a bare suppression is
// itself a lint error, which is how "zero unreasoned suppressions" is
// enforced mechanically rather than by review. //viator:api <reason>
// sits in a function's doc comment or on the line above it and exempts
// it from deadapi: its caller is outside the module or the package
// exists for tests.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. This mirrors the
// golang.org/x/tools/go/analysis Analyzer shape (Name/Doc/Run) so the
// suite could migrate onto the real framework if the dependency ever
// becomes available; it carries no facts and no inter-analyzer results.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files only; see SrcFiles
	Pkg       *types.Package
	TypesInfo *types.Info
	Path      string // import path as the build system resolved it
	Report    func(Diagnostic)

	annots map[string]lineAnnotations // per filename, lazily built
}

// A Diagnostic is one finding, positioned in Fset.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // filled by the driver
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers is the full suite in the order drivers run it.
var Analyzers = []*Analyzer{MapOrder, WallTime, TieBreak, NoAlloc}

// DeterministicPackages is the set of import paths bound by the
// determinism contract: everything that executes inside (or feeds
// state into) a simulation run. The root package is the experiment
// catalog itself. cmd/* and the measurement-only helper package
// linttest are exempt: they run outside the kernel.
var DeterministicPackages = map[string]bool{
	"viator":                    true, // experiment catalog + harness
	"viator/internal/sim":       true,
	"viator/internal/netsim":    true,
	"viator/internal/topo":      true,
	"viator/internal/routing":   true,
	"viator/internal/mobility":  true,
	"viator/internal/cluster":   true,
	"viator/internal/resonance": true,
	"viator/internal/metamorph": true,
	"viator/internal/ployon":    true,
	"viator/internal/ship":      true,
	"viator/internal/roles":     true,
	"viator/internal/feedback":  true,
	"viator/internal/telemetry": true,
	// The principle engines below the 13 packages the contract names
	// explicitly: they also execute inside runs and share the same
	// byte-identity obligation.
	"viator/internal/mc":       true,
	"viator/internal/vm":       true,
	"viator/internal/kq":       true,
	"viator/internal/shuttle":  true,
	"viator/internal/nodeos":   true,
	"viator/internal/stats":    true,
	"viator/internal/workload": true,
	"viator/internal/hw":       true,
	"viator/internal/baseline": true,
	"viator/internal/spec":     true,
	"viator/internal/trace":    true,
	// The scenario DSL validates and lowers specs onto runs; its output
	// feeds the same byte-identity contract as the root catalog.
	"viator/internal/scenario": true,
	// The live service drives resident runs and publishes their state;
	// it must never read wall time (pacing is injected via serve.Pacer,
	// implemented in cmd/viatorserve) or leak map order into anything a
	// client can observe.
	"viator/internal/serve": true,
}

// detFixture marks linttest fixture packages that should be treated as
// deterministic: any fixture import path whose final element starts
// with "det". Fixtures live under testdata (invisible to go build) and
// are loaded by linttest with a caller-chosen import path.
const detFixturePrefix = "det"

// IsDeterministic reports whether the package at path is bound by the
// determinism contract.
func IsDeterministic(path string) bool {
	if DeterministicPackages[path] {
		return true
	}
	// "viator/internal/sim [viator/internal/sim.test]" — go vet names
	// test variants with a bracketed suffix; strip it.
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return IsDeterministic(path[:i])
	}
	if base := path[strings.LastIndexByte(path, '/')+1:]; strings.HasPrefix(base, detFixturePrefix) {
		return strings.Contains(path, "lint/fixture/")
	}
	return false
}

// isTestFile reports whether the file position is in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.File(pos).Name(), "_test.go")
}

// SrcFiles returns the pass's non-test files. The contract governs
// shipped simulation code; test files may freely range maps, measure
// wall time and read the environment.
func (p *Pass) SrcFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !isTestFile(p.Fset, f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// typeIsMap reports whether t's underlying (or core) type is a map.
func typeIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		return true
	}
	return false
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether t is an integer type.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// calleePkgFunc resolves a call expression to ("pkgpath", "Func") when
// the callee is a package-level function of another package, e.g.
// sort.Slice → ("sort", "Slice"). Returns ok=false otherwise.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkg, name string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	obj := info.Uses[sel.Sel]
	fn, okFn := obj.(*types.Func)
	if !okFn || fn.Pkg() == nil {
		return "", "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
