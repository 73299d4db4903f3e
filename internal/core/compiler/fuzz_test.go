package compiler_test

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/experiments"
)

// FuzzParseCompile throws arbitrary text at the .nt front end — ntapi.Parse,
// then compiler.Compile — and checks the contracts callers rely on: a hostile
// program is an error, never a panic, and whatever parses prints back through
// ntapi.Format as text that parses, with parse → Format a fixed point from
// there on. The header-space cap and the cuckoo arrays are kept small so an
// input that parses costs microseconds, not the 2^21-tuple enumeration of the
// defaults. Seeds are every shipped program: tasks/*.nt and the 18-program
// experiment corpus (this file is an external test package because
// experiments imports compiler).
func FuzzParseCompile(f *testing.F) {
	tasks, err := filepath.Glob("../../../tasks/*.nt")
	if err != nil || len(tasks) == 0 {
		f.Fatalf("no tasks/*.nt seeds found (%v)", err)
	}
	for _, path := range tasks {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, p := range experiments.Programs() {
		f.Add(p.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		task, err := ntapi.Parse("fuzz", src)
		if err != nil {
			return
		}
		printed := ntapi.Format(task)
		again, err := ntapi.Parse("fuzz", printed)
		if err != nil {
			t.Fatalf("Format printed text Parse rejects: %v\n%s", err, printed)
		}
		if reprinted := ntapi.Format(again); reprinted != printed {
			t.Fatalf("parse -> Format is not a fixed point:\n%s\nprinted again as\n%s", printed, reprinted)
		}
		_, _ = compiler.Compile(task, compiler.Options{MaxHeaderSpace: 1 << 10, ArraySize: 1 << 8})
	})
}
