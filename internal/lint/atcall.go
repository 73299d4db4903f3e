package lint

import (
	"go/ast"
	"go/types"
)

// AtCallConfig parameterizes the atcall analyzer. netsim.Sim.AtCall,
// AfterCall and AtCallStamped exist for exactly one reason: scheduling a hop
// without the per-packet closure allocation that At/After incur. Passing a
// function literal (a capturing closure) or a method value to them defeats
// the API — both allocate on every call — and silently reintroduces the GC
// pressure PR 1 removed. The hot-path discipline is a package-level
// trampoline function plus a pooled argument (see internal/asic/pool.go).
type AtCallConfig struct {
	// Schedulers are the receiver types carrying the zero-alloc APIs,
	// as "importpath.TypeName".
	Schedulers map[string]bool

	// Methods are the zero-alloc scheduling entry points and the
	// argument index of their callback parameter.
	Methods map[string]int
}

// DefaultAtCallConfig covers netsim.Sim.
func DefaultAtCallConfig() AtCallConfig {
	return AtCallConfig{
		Schedulers: map[string]bool{
			"github.com/hypertester/hypertester/internal/netsim.Sim": true,
		},
		Methods: map[string]int{"AtCall": 1, "AfterCall": 1, "AtCallStamped": 2},
	}
}

// AtCall builds the atcall analyzer for the given configuration.
func AtCall(cfg AtCallConfig) *Analyzer {
	a := &Analyzer{
		Name: "atcall",
		Doc: "flags function literals and method values passed to the zero-allocation " +
			"AtCall/AfterCall/AtCallStamped scheduling APIs; pass a package-level func and a pooled argument",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkAtCall(pass, cfg, call)
				return true
			})
		}
		return nil
	}
	return a
}

func checkAtCall(pass *Pass, cfg AtCallConfig, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	argIdx, ok := cfg.Methods[sel.Sel.Name]
	if !ok || argIdx >= len(call.Args) {
		return
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil || !isSchedulerType(cfg, recv) {
		return
	}
	switch fn := call.Args[argIdx].(type) {
	case *ast.FuncLit:
		pass.Reportf(fn.Pos(),
			"function literal passed to %s allocates a closure per call; pass a package-level func(any) and a pooled argument", sel.Sel.Name)
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[fn]; ok && s.Kind() == types.MethodVal {
			pass.Reportf(fn.Pos(),
				"method value passed to %s allocates per call; pass a package-level func(any) and a pooled argument", sel.Sel.Name)
		}
	}
}

func isSchedulerType(cfg AtCallConfig, t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return cfg.Schedulers[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}
