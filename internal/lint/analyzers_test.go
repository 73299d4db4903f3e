package lint_test

import (
	"testing"

	"github.com/hypertester/hypertester/internal/lint"
	"github.com/hypertester/hypertester/internal/lint/linttest"
)

// The fixture configs mirror DefaultPoolConfig and friends but key on the
// fixture packages' own import paths, keeping the fixtures free of
// dependencies on the real simulator packages.

func TestPoolSafetyFixtures(t *testing.T) {
	a := lint.PoolSafety(lint.PoolConfig{
		Pooled: map[string]bool{
			"poolsafety.Packet": true,
			"poolsafety.PHV":    true,
		},
		ReleaseMethods:  map[string]bool{"Release": true},
		ReleaseFuncs:    map[string]bool{"releasePHV": true},
		RetainScope:     []string{"poolsafety"},
		AllowSinkSuffix: "free",
	})
	linttest.Run(t, linttest.Fixture(t, "poolsafety"), a)
}

func TestDeterminismFixtures(t *testing.T) {
	a := lint.Determinism(lint.DeterminismConfig{
		Packages: []string{"determinism"},
	})
	linttest.Run(t, linttest.Fixture(t, "determinism"), a)
}

func TestObsAllocFixtures(t *testing.T) {
	a := lint.ObsAlloc(lint.ObsAllocConfig{
		TraceTypes:  map[string]bool{"obsalloc.Trace": true},
		EmitMethods: map[string]bool{"Emit": true},
		BannedPkgs:  map[string]bool{"fmt": true},
	})
	linttest.Run(t, linttest.Fixture(t, "obsalloc"), a)
}

func TestAtCallFixtures(t *testing.T) {
	a := lint.AtCall(lint.AtCallConfig{
		Schedulers: map[string]bool{"atcall.Sim": true},
		Methods:    lint.DefaultAtCallConfig().Methods,
	})
	linttest.Run(t, linttest.Fixture(t, "atcall"), a)
}

// TestDeterminismOutOfScope proves the analyzer's package scoping: the
// same violations in a package outside the configured set produce no
// diagnostics (the CLI and bench harness legitimately read wall clocks).
func TestDeterminismOutOfScope(t *testing.T) {
	a := lint.Determinism(lint.DeterminismConfig{
		Packages: []string{"internal/netsim"},
	})
	pkg, err := lint.NewLoader().CheckFiles("determinism", linttest.Fixture(t, "determinism"),
		[]string{"determinism.go"})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced diagnostics: %v", diags)
	}
}
