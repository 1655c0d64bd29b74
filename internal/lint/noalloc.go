package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// NoAlloc is the static half of the zero-allocation contract. The
// //viator:noalloc marker on a function declares "this function body
// contains no heap allocation sites"; the escape-analysis verification
// against `go build -gcflags=-m` output lives in EscapeCheck (escape.go)
// and runs in viatorlint's standalone mode, because a modular `go vet`
// unit cannot re-invoke the compiler.
//
// This analyzer validates the whole //viator: annotation grammar so a
// malformed or drifting annotation is itself a lint failure:
//
//   - unknown directives;
//   - suppressions (maporder-safe, walltime-ok, tiebreak-safe,
//     alloc-ok, api) with an empty reason — a suppression must say why;
//   - //viator:noalloc or //viator:api not attached to a function
//     declaration;
//   - //viator:noalloc carrying trailing text (it is a marker, not a
//     suppression; contract rationale belongs in the doc comment);
//   - //viator:alloc-ok outside the body of a noalloc function;
//   - //viator:maporder-safe / tiebreak-safe lines that do not govern a
//     map range / sort call (drifted or misplaced suppressions).
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "validates //viator: annotation grammar; escape verification runs in standalone mode",
	Run:  runNoAlloc,
}

// A NoAllocFunc is one annotated function, as collected for EscapeCheck.
type NoAllocFunc struct {
	Name      string // display name, e.g. (*Kernel).Schedule
	File      string
	StartLine int
	EndLine   int
	AllocOK   map[int]bool // lines inside the body allowed to allocate
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.SrcFiles() {
		validateAnnotations(pass, f)
	}
	return nil
}

func validateAnnotations(pass *Pass, f *ast.File) {
	anns := fileAnnotations(pass.Fset, f)
	funcs := noAllocFuncs(pass, f)

	// Line spans of noalloc bodies, and the lines that legitimately
	// carry each directive.
	type span struct{ start, end int }
	var bodies []span
	for _, fn := range funcs {
		bodies = append(bodies, span{fn.StartLine, fn.EndLine})
	}
	governed := governedLines(pass, f)

	for _, list := range anns {
		for _, a := range list {
			if !knownDirectives[a.Directive] {
				pass.Reportf(a.Pos, "unknown annotation //viator:%s (known: noalloc, alloc-ok, maporder-safe, walltime-ok, tiebreak-safe, api)", a.Directive)
				continue
			}
			if suppressions[a.Directive] && a.Reason == "" {
				pass.Reportf(a.Pos, "//viator:%s without a reason: every suppression must say why", a.Directive)
				continue
			}
			switch a.Directive {
			case DirNoAlloc:
				if a.Reason != "" {
					pass.Reportf(a.Pos, "//viator:noalloc takes no argument; put rationale in the doc comment")
				}
				if !annotatesFunc(pass, f, a) {
					pass.Reportf(a.Pos, "//viator:noalloc must be attached to a function declaration")
				}
			case DirAPI:
				if !annotatesFunc(pass, f, a) {
					pass.Reportf(a.Pos, "//viator:api must be attached to a function declaration")
				}
			case DirAllocOK:
				inside := false
				for _, b := range bodies {
					if a.Line >= b.start && a.Line <= b.end {
						inside = true
						break
					}
				}
				if !inside {
					pass.Reportf(a.Pos, "//viator:alloc-ok outside a //viator:noalloc function body has no effect")
				}
			case DirMapOrderSafe, DirTieBreakSafe:
				if !governed[a.Directive][a.Line] && !governed[a.Directive][a.Line+1] {
					pass.Reportf(a.Pos, "//viator:%s does not govern a %s on this or the next line; remove or move the annotation", a.Directive, governsWhat(a.Directive))
				}
			}
		}
	}
}

func governsWhat(dir string) string {
	if dir == DirMapOrderSafe {
		return "map range"
	}
	return "sort call"
}

// governedLines records, per directive, the lines on which a construct
// that the directive can suppress begins.
func governedLines(pass *Pass, f *ast.File) map[string]map[int]bool {
	out := map[string]map[int]bool{
		DirMapOrderSafe: {},
		DirTieBreakSafe: {},
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if typeIsMap(pass.TypesInfo.TypeOf(n.X)) {
				out[DirMapOrderSafe][pass.Fset.Position(n.Pos()).Line] = true
			}
		case *ast.CallExpr:
			if pkg, name, ok := calleePkgFunc(pass.TypesInfo, n); ok {
				if _, isSort := comparatorArg[pkg][name]; isSort {
					out[DirTieBreakSafe][pass.Fset.Position(n.Pos()).Line] = true
				}
			}
		}
		return true
	})
	return out
}

// annotatesFunc reports whether annotation a is a doc line of, or sits
// directly above, some function declaration in f.
func annotatesFunc(pass *Pass, f *ast.File, a Annotation) bool {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		declLine := pass.Fset.Position(fn.Pos()).Line
		if a.Line == declLine-1 {
			return true
		}
		if fn.Doc != nil {
			start := pass.Fset.Position(fn.Doc.Pos()).Line
			end := pass.Fset.Position(fn.Doc.End()).Line
			if a.Line >= start && a.Line <= end {
				return true
			}
		}
	}
	return false
}

// noAllocFuncs collects the //viator:noalloc-annotated functions of f.
func noAllocFuncs(pass *Pass, f *ast.File) []NoAllocFunc {
	return collectNoAllocFuncs(pass.Fset, f)
}

// CollectNoAllocFuncs returns the //viator:noalloc-annotated functions
// of a parsed file. Exported for allocpin, which cross-checks that the
// functions a zero-alloc test pins are actually under the contract.
func CollectNoAllocFuncs(fset *token.FileSet, f *ast.File) []NoAllocFunc {
	return collectNoAllocFuncs(fset, f)
}

// collectNoAllocFuncs is the driver-independent collection used both by
// the analyzer and by EscapeCheck (which parses without type-checking).
func collectNoAllocFuncs(fset *token.FileSet, f *ast.File) []NoAllocFunc {
	anns := fileAnnotations(fset, f)
	var out []NoAllocFunc
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if _, marked := funcAnnotation(fset, anns, fn, DirNoAlloc); !marked {
			continue
		}
		nf := NoAllocFunc{
			Name:      funcDisplayName(fn),
			File:      fset.File(fn.Pos()).Name(),
			StartLine: fset.Position(fn.Body.Pos()).Line,
			EndLine:   fset.Position(fn.Body.End()).Line,
			AllocOK:   map[int]bool{},
		}
		for line, list := range anns {
			for _, a := range list {
				if a.Directive == DirAllocOK && a.Reason != "" &&
					line >= nf.StartLine && line <= nf.EndLine {
					// An alloc-ok governs its own line and the next, like
					// every other suppression.
					nf.AllocOK[line] = true
					nf.AllocOK[line+1] = true
				}
			}
		}
		out = append(out, nf)
	}
	return out
}

// funcDisplayName renders Func, Type.Method or (*Type).Method.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	var b strings.Builder
	switch t := t.(type) {
	case *ast.StarExpr:
		b.WriteString("(*")
		b.WriteString(recvTypeName(t.X))
		b.WriteString(")")
	default:
		b.WriteString(recvTypeName(t))
	}
	b.WriteString(".")
	b.WriteString(fn.Name.Name)
	return b.String()
}

func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	default:
		return "?"
	}
}
