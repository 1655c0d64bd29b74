package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DeadAPI is the exported-surface check: every exported function or
// method declared in an internal/ package must be referenced from a
// non-test file, so nothing survives only because its own tests call
// it. A method that satisfies an interface the module can see counts as
// referenced (a call through the interface names the interface's
// method, not the concrete one), and a function whose caller lives
// outside the module, or in a package that exists for tests, carries
//
//	//viator:api <reason>
//
// in its doc comment or on the line directly above it.
//
// A reference only counts when it comes from somewhere else: a
// recursive call inside the function's own body does not keep it
// alive. Over one package (the linttest fixtures) the analyzer sees one
// package's references; the standalone driver runs DeadAPICheck, which
// collects references from the whole main module whatever patterns it
// is given. DeadAPI is therefore not in Analyzers: a vet unit sees one
// package and would report every function only its importers call.
var DeadAPI = &Analyzer{
	Name: "deadapi",
	Doc:  "exported internal/ functions and methods need a non-test reference; standalone mode checks the whole module",
	Run: func(pass *Pass) error {
		u := &LoadedPackage{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.TypesInfo}
		deadAPI([]*LoadedPackage{u}, map[string]bool{pass.Pkg.Path(): true}, func(_ *LoadedPackage, d Diagnostic) {
			pass.Report(d)
		})
		return nil
	},
}

// DeadAPICheck runs DeadAPI over the main module that holds targets.
// References come from every non-test file of the module; findings are
// reported for the target packages only, rendered with their positions.
func DeadAPICheck(targets []*Package) ([]Diagnostic, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	loaded, _, err := Load(targets[0].Module.Dir, []string{"./..."})
	if err != nil {
		return nil, fmt.Errorf("deadapi: %v", err)
	}
	report := map[string]bool{}
	for _, p := range targets {
		report[p.ImportPath] = true
	}
	var diags []Diagnostic
	deadAPI(loaded, report, func(u *LoadedPackage, d Diagnostic) {
		diags = append(diags, Diagnostic{
			Analyzer: DeadAPI.Name,
			Message:  fmt.Sprintf("%s: [%s] %s", u.Fset.Position(d.Pos), DeadAPI.Name, d.Message),
		})
	})
	sort.Slice(diags, func(i, j int) bool { return diags[i].Message < diags[j].Message })
	return diags, nil
}

// apiKey names a function across packages, each of which is
// type-checked with its own universe: "pkg.Func" or "pkg.Type.Method".
func apiKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	named := namedOf(recv.Type())
	if named == nil {
		return "" // interface method
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// namedOf returns T for T or *T, nil otherwise.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isInternal reports whether path is an internal/ package.
func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// deadAPI reports, through found, every unreferenced exported function
// or method of the internal/ packages in report, with references drawn
// from all of pkgs.
func deadAPI(pkgs []*LoadedPackage, report map[string]bool, found func(*LoadedPackage, Diagnostic)) {
	refs := map[string]bool{}
	satisfied := map[string]bool{}
	for _, u := range pkgs {
		collectRefs(u, refs)
		markSatisfied(u, satisfied)
	}
	for _, u := range pkgs {
		if !report[u.Types.Path()] || !isInternal(u.Types.Path()) {
			continue
		}
		for _, f := range u.Files {
			if isTestFile(u.Fset, f.Pos()) {
				continue
			}
			anns := fileAnnotations(u.Fset, f)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, _ := u.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := apiKey(fn)
				if refs[key] || satisfied[key] {
					continue
				}
				if a, ok := funcAnnotation(u.Fset, anns, fd, DirAPI); ok && a.Reason != "" {
					continue
				}
				found(u, Diagnostic{Pos: fd.Name.Pos(), Message: fmt.Sprintf(
					"%s is exported but no non-test file references it; delete it, move it into a _test.go file, or annotate it //viator:api <reason>",
					funcDisplayName(fd))})
			}
		}
	}
}

// collectRefs adds every function the package's non-test files use,
// except a function's uses of itself inside its own declaration.
func collectRefs(u *LoadedPackage, refs map[string]bool) {
	for _, f := range u.Files {
		if isTestFile(u.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
					self = apiKey(fn)
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := u.Info.Uses[id].(*types.Func); ok {
					if key := apiKey(fn); key != self {
						refs[key] = true
					}
				}
				return true
			})
		}
	}
}

// markSatisfied adds the methods of internal/ types that implement an
// interface visible in package u: one declared in u or any package it
// transitively imports, the predeclared error, or an interface literal
// u's code mentions. Only types u's code mentions can be converted to an
// interface there, so the candidate types come from u's recorded
// expression types.
func markSatisfied(u *LoadedPackage, satisfied map[string]bool) {
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(u.Types)

	// byName indexes the candidate types by the exported methods in
	// their method sets, promoted ones included: a type satisfies an
	// interface through an embedded type's method too.
	byName := map[string][]*types.Named{}
	seenType := map[*types.Named]bool{}
	for _, tv := range u.Info.Types {
		if tv.Type == nil {
			continue
		}
		addIface(tv.Type)
		n := namedOf(tv.Type)
		if n == nil || seenType[n.Origin()] {
			continue
		}
		n = n.Origin()
		seenType[n] = true
		if n.Obj().Pkg() == nil || !isInternal(n.Obj().Pkg().Path()) {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				byName[m.Name()] = append(byName[m.Name()], n)
			}
		}
	}

	for _, it := range ifaces {
		checked := map[*types.Named]bool{}
		for i := 0; i < it.NumMethods(); i++ {
			for _, n := range byName[it.Method(i).Name()] {
				if checked[n] {
					continue
				}
				checked[n] = true
				// *T's method set holds T's too. Implements is unspecified
				// for uninstantiated generic types; a method name match
				// stands in for them.
				ptr := types.NewPointer(n)
				if n.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						satisfied[apiKey(fn)] = true
					}
				}
			}
		}
	}
}
