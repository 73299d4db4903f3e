package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismConfig parameterizes the determinism analyzer: the simulator
// promises bit-for-bit reproducible runs (same seed, same machine count,
// same results — the property the parallel experiment runner's -race test
// asserts), which only holds if simulation code never consults wall-clock
// time, never draws from a shared global RNG, and never lets Go's
// randomized map iteration order influence event order or output.
type DeterminismConfig struct {
	// Packages are import-path suffixes the rules apply to (simulation
	// core packages). Elsewhere — the CLI, the bench harness — wall
	// clocks are legitimate.
	Packages []string
}

// DefaultDeterminismConfig covers HyperTester's simulation core.
func DefaultDeterminismConfig() DeterminismConfig {
	return DeterminismConfig{Packages: []string{
		"internal/asic", "internal/netsim", "internal/experiments",
		"internal/scenario",
		"internal/core/htpr", "internal/core/htps", "internal/core/stateless",
		"internal/switchcpu",
	}}
}

// globalRandFuncs are the math/rand (and v2) package-level functions backed
// by the shared global source. Constructing explicit seeded sources
// (New, NewSource, NewPCG, NewChaCha8, NewZipf) stays allowed: that is
// exactly what netsim.NewRNG does.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "Uint32": true, "Uint32N": true,
	"Uint64": true, "Uint64N": true, "UintN": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true, "N": true,
}

// wallClockFuncs are the time functions that read the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// Determinism builds the determinism analyzer for the given configuration.
func Determinism(cfg DeterminismConfig) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc: "forbids wall-clock reads (time.Now), global-source math/rand calls, and " +
			"map-iteration-order dependence inside the simulation core packages",
	}
	a.Run = func(pass *Pass) error {
		inScope := false
		for _, sfx := range cfg.Packages {
			if packagePathHasSuffix(pass.Pkg.Path(), sfx) {
				inScope = true
				break
			}
		}
		if !inScope {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CallExpr:
					checkDeterministicCall(pass, s)
				case *ast.RangeStmt:
					if t := pass.TypesInfo.TypeOf(s.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(s.Pos(),
								"range over map: iteration order is randomized and breaks run-to-run determinism; iterate a sorted key slice instead")
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkDeterministicCall flags time.Now/Since/Until and global math/rand
// draws.
func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; simulation code must use the virtual clock (netsim.Sim.Now)", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the unseeded global source; derive a stream with netsim.NewRNG (or rand.New with an explicit seed)", sel.Sel.Name)
		}
	}
}
