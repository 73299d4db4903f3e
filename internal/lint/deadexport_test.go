package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// deadExportExempt names the internal packages whose exports the guard
// does not check, each with its reason.
var deadExportExempt = map[string]string{
	"internal/netsim":        "the simulation kernel's API is complete by design; its tests and oracles drive all of it",
	"internal/obs":           "the observability surface is read by tests and external trace tools alike",
	"internal/raceflag":      "its constant is a build-tag switch that only race-sensitive tests read",
	"internal/lint/linttest": "the fixture runner exists for tests",
}

// TestNoDeadExports is the repository guard against API that only tests
// reach: every exported package-level object and method declared in an
// internal package must be used by non-test code somewhere in the module,
// outside its own declaration. The loader type-checks only non-test files,
// so a use from a test is invisible by construction. Exempt are methods
// that implement an interface, String and Error, the packages in
// deadExportExempt, and declarations annotated
// `//htlint:ignore deadexport <reason>` (the inspection taps that
// differential oracles read).
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	ld := NewLoader()
	pkgs, err := ld.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	inScope := func(path string) bool {
		if !strings.Contains(path, "/internal/") {
			return false
		}
		for p := range deadExportExempt {
			if packagePathHasSuffix(path, p) {
				return false
			}
		}
		return true
	}
	for _, d := range deadExports(ld, pkgs, inScope) {
		t.Errorf("%s", d)
	}
}

// TestDeadExportFixture proves the exemptions on a fixture with one dead
// export, one interface method, one String method, one annotated tap and
// one export used by its own package.
func TestDeadExportFixture(t *testing.T) {
	ld := NewLoader()
	pkg, err := ld.CheckFiles("deadexport", "testdata/src/deadexport", []string{"deadexport.go"})
	if err != nil {
		t.Fatal(err)
	}
	diags := deadExports(ld, []*Package{pkg}, func(string) bool { return true })
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "Dead is exported") {
		t.Fatalf("want exactly one finding, for Dead; got %v", diags)
	}
}

// deadExports reports every exported package-level object and method
// declared in a package that inScope selects which no package in pkgs uses
// outside its own declaration.
func deadExports(ld *Loader, pkgs []*Package, inScope func(path string) bool) []Diagnostic {
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		decls := declRanges(pkg)
		for id, obj := range pkg.TypesInfo.Uses {
			obj = origin(obj)
			if r, ok := decls[obj]; ok && r[0] <= id.Pos() && id.Pos() < r[1] {
				continue
			}
			used[obj] = true
		}
	}
	ifaces := interfaces(ld, pkgs)

	var out []Diagnostic
	for _, pkg := range pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		ignores := collectIgnores(pkg)
		report := func(obj types.Object, what string) {
			if used[obj] {
				return
			}
			d := Diagnostic{
				Analyzer: "deadexport",
				Pos:      pkg.Fset.Position(obj.Pos()),
				Message:  what + " is exported but only tests use it: delete it, or annotate why it stays",
			}
			if !ignores.matches(d) {
				out = append(out, d)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && m.Name() != "String" && m.Name() != "Error" &&
					!implementsInterface(named, m.Name(), ifaces) {
					report(m, name+"."+m.Name())
				}
			}
		}
	}
	return out
}

// declRanges maps each package-level object and method of pkg to the
// source range of its declaration, so a use inside it (recursion, a
// method naming its own receiver type) does not count.
func declRanges(pkg *Package) map[types.Object][2]token.Pos {
	out := map[types.Object][2]token.Pos{}
	def := func(id *ast.Ident, n ast.Node) {
		if obj := pkg.TypesInfo.Defs[id]; obj != nil {
			out[obj] = [2]token.Pos{n.Pos(), n.End()}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				def(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						def(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							def(id, s)
						}
					}
				}
			}
		}
	}
	return out
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// interfaces collects every interface type the loaded code can satisfy:
// the named interfaces of every type-checked package (the standard
// library's included) and the interface literals in the matched packages.
func interfaces(ld *Loader, pkgs []*Package) []*types.Interface {
	var out []*types.Interface
	for _, tpkg := range ld.types {
		scope := tpkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.TypesInfo.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// implementsInterface reports whether the method named name on T or *T
// is required by some interface that T or *T implements.
func implementsInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				if m, _ := types.MissingMethod(ptr, it, true); m == nil {
					return true
				}
				break
			}
		}
	}
	return false
}
