package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Checker is one named check a Tool can run, such as one of htlint's
// Go-package analyzers. Run returns the findings as printable lines; a
// non-nil error is an internal failure, not a finding.
type Checker struct {
	Name string
	Doc  string
	Run  func(dir string, args []string) ([]string, error)
}

// Tool is the multichecker driver behind cmd/htlint: flag parsing (-list,
// -dir), finding output, and the exit-code contract — 0 clean, 1 findings,
// 2 usage or internal error.
type Tool struct {
	Name     string
	Doc      string
	Checkers []Checker
	Stdout   io.Writer // defaults to os.Stdout
	Stderr   io.Writer // defaults to os.Stderr
}

// Main runs the tool over argv (without the program name) and returns
// the process exit code.
func (t *Tool) Main(argv []string) int {
	stdout, stderr := t.Stdout, t.Stderr
	if stdout == nil {
		stdout = os.Stdout
	}
	if stderr == nil {
		stderr = os.Stderr
	}
	fs := flag.NewFlagSet(t.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] [patterns]\n%s\n", t.Name, t.Doc)
		fs.PrintDefaults()
	}
	list := fs.Bool("list", false, "describe the checkers and exit")
	dir := fs.String("dir", ".", "directory to resolve patterns from")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, c := range t.Checkers {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	findings := 0
	for _, c := range t.Checkers {
		lines, err := c.Run(*dir, fs.Args())
		if err != nil {
			fmt.Fprintf(stderr, "%s: %s: %v\n", t.Name, c.Name, err)
			return 2
		}
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		findings += len(lines)
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "%s: %d finding(s)\n", t.Name, findings)
		return 1
	}
	return 0
}

// AnalyzerCheckers adapts Go-package analyzers to Tool checkers. The
// package load is shared across the checkers of one Main run, so the
// multichecker parses and type-checks each package once.
func AnalyzerCheckers(analyzers []*Analyzer) []Checker {
	type loaded struct {
		pkgs []*Package
		err  error
	}
	cache := map[string]*loaded{}
	load := func(dir string, patterns []string) ([]*Package, error) {
		key := dir + "\x00" + strings.Join(patterns, "\x00")
		if l, ok := cache[key]; ok {
			return l.pkgs, l.err
		}
		pkgs, err := NewLoader().Load(dir, patterns...)
		cache[key] = &loaded{pkgs: pkgs, err: err}
		return pkgs, err
	}
	out := make([]Checker, 0, len(analyzers))
	for _, a := range analyzers {
		a := a
		out = append(out, Checker{
			Name: a.Name,
			Doc:  a.Doc,
			Run: func(dir string, args []string) ([]string, error) {
				patterns := args
				if len(patterns) == 0 {
					patterns = []string{"./..."}
				}
				pkgs, err := load(dir, patterns)
				if err != nil {
					return nil, err
				}
				var lines []string
				for _, pkg := range pkgs {
					diags, err := RunPackage(pkg, []*Analyzer{a})
					if err != nil {
						return nil, err
					}
					for _, d := range diags {
						lines = append(lines, d.String())
					}
				}
				return lines, nil
			},
		})
	}
	return out
}
