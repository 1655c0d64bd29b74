package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation directives. The grammar is a single comment line of the
// form
//
//	//viator:<directive> [reason]
//
// exactly as written (no space between // and viator:). Suppression
// directives require a non-empty reason; NoAlloc is a contract marker
// and takes no reason. An annotation governs the source line it sits
// on, or — when it is the only thing on its line — the line directly
// below it, which lets it sit either above a statement or trailing it.
// The function directives (noalloc, api) sit in the function's doc
// comment or on the line directly above its declaration.
const (
	DirNoAlloc      = "noalloc"       // func contract: 0 heap allocation sites
	DirAllocOK      = "alloc-ok"      // line inside a noalloc func allowed to allocate
	DirMapOrderSafe = "maporder-safe" // range-over-map suppression
	DirWallTimeOK   = "walltime-ok"   // wall-clock/env/global-rand suppression
	DirTieBreakSafe = "tiebreak-safe" // float-comparator suppression
	DirAPI          = "api"           // exported func kept with no non-test caller in the module
)

// suppressions are the directives that require a reason.
var suppressions = map[string]bool{
	DirAllocOK:      true,
	DirMapOrderSafe: true,
	DirWallTimeOK:   true,
	DirTieBreakSafe: true,
	DirAPI:          true,
}

// knownDirectives is every directive the suite understands.
var knownDirectives = map[string]bool{
	DirNoAlloc:      true,
	DirAllocOK:      true,
	DirMapOrderSafe: true,
	DirWallTimeOK:   true,
	DirTieBreakSafe: true,
	DirAPI:          true,
}

const annotPrefix = "//viator:"

// An Annotation is one parsed //viator: comment.
type Annotation struct {
	Directive string
	Reason    string
	Pos       token.Pos
	Line      int // line the comment sits on
}

// lineAnnotations maps source line → annotations written on that line.
type lineAnnotations map[int][]Annotation

// parseAnnotation parses one comment; ok is false for non-viator
// comments. Unknown directives still parse (ok=true) so the grammar
// check can flag them.
func parseAnnotation(fset *token.FileSet, c *ast.Comment) (Annotation, bool) {
	if !strings.HasPrefix(c.Text, annotPrefix) {
		return Annotation{}, false
	}
	rest := c.Text[len(annotPrefix):]
	dir, reason, _ := strings.Cut(rest, " ")
	return Annotation{
		Directive: dir,
		Reason:    strings.TrimSpace(reason),
		Pos:       c.Pos(),
		Line:      fset.Position(c.Pos()).Line,
	}, true
}

// fileAnnotations extracts every //viator: annotation in f.
func fileAnnotations(fset *token.FileSet, f *ast.File) lineAnnotations {
	out := lineAnnotations{}
	for _, g := range f.Comments {
		for _, c := range g.List {
			if a, ok := parseAnnotation(fset, c); ok {
				out[a.Line] = append(out[a.Line], a)
			}
		}
	}
	return out
}

// annotationsFor returns the annotations in the file containing pos.
func (p *Pass) annotationsFor(pos token.Pos) lineAnnotations {
	name := p.Fset.File(pos).Name()
	if p.annots == nil {
		p.annots = map[string]lineAnnotations{}
		for _, f := range p.Files {
			p.annots[p.Fset.File(f.Pos()).Name()] = fileAnnotations(p.Fset, f)
		}
	}
	return p.annots[name]
}

// suppressed reports whether a node starting at pos is covered by the
// given suppression directive: an annotation on the node's own line or
// on the line directly above. A suppression with an empty reason does
// not suppress (the annot check reports it instead), so an unreasoned
// annotation can never silence a finding.
func (p *Pass) suppressed(dir string, pos token.Pos) bool {
	anns := p.annotationsFor(pos)
	line := p.Fset.Position(pos).Line
	for _, a := range anns[line] {
		if a.Directive == dir && a.Reason != "" {
			return true
		}
	}
	for _, a := range anns[line-1] {
		if a.Directive == dir && a.Reason != "" {
			return true
		}
	}
	return false
}

// funcAnnotation returns fn's dir annotation, found in its doc comment
// or on the line directly above its declaration (between the doc
// comment and the func keyword).
func funcAnnotation(fset *token.FileSet, anns lineAnnotations, fn *ast.FuncDecl, dir string) (Annotation, bool) {
	decl := fset.Position(fn.Pos()).Line
	first := decl - 1
	if fn.Doc != nil {
		first = min(first, fset.Position(fn.Doc.Pos()).Line)
	}
	for l := first; l < decl; l++ {
		for _, a := range anns[l] {
			if a.Directive == dir {
				return a, true
			}
		}
	}
	return Annotation{}, false
}
