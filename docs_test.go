package hypertester

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose citations must resolve. ROADMAP.md and
// CHANGES.md are history and plans, and benchmark/ cites its own world.
var citedDocs = []string{
	"DESIGN.md",
	"README.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	"Makefile",
	".github/workflows/ci.yml",
}

var (
	testNameRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	runFlagRe  = regexp.MustCompile(`-run[\s=]+(?:'([^']*)'|"([^"]*)"|([^\s` + "`" + `]+))`)
	designRe   = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)?)(?:[–-](\d+(?:\.\d+)?))?`)
	headingRe  = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
)

// TestDocCitationsResolve checks every citation in the docs, the Makefile,
// CI and the comments of non-test Go files: each Test/Fuzz/Benchmark name
// is a defined function, each alternative of a `go test -run` pattern
// matches at least one, and each `DESIGN §N[.M]` names a heading of
// DESIGN.md.
func TestDocCitationsResolve(t *testing.T) {
	funcs := map[string]bool{}
	sources := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testNameRe.FindString(fn.Name.Name) == fn.Name.Name {
					funcs[fn.Name.Name] = true
				}
			}
			return nil
		}
		if !strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			var b strings.Builder
			for _, cg := range f.Comments {
				b.WriteString(cg.Text())
			}
			sources[path] = b.String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		sources[doc] = string(b)
	}
	design := sources["DESIGN.md"]
	headings := map[string]bool{}
	for _, m := range headingRe.FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}

	for src, text := range sources {
		if src == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		// A -run pattern counts when a `test` command precedes it (a
		// program's own -run flag is not one); its names are checked as a
		// pattern.
		names := text
		for _, loc := range runFlagRe.FindAllStringSubmatchIndex(text, -1) {
			if !strings.Contains(text[max(0, loc[0]-50):loc[0]], "test ") {
				continue
			}
			m := text[loc[0]:loc[1]]
			names = strings.Replace(names, m, "", 1)
			pattern := ""
			for i := 2; i < len(loc); i += 2 {
				if loc[i] >= 0 {
					pattern = text[loc[i]:loc[i+1]]
				}
			}
			checkRunPattern(t, src, pattern, funcs)
		}
		for _, name := range testNameRe.FindAllString(names, -1) {
			if !funcs[name] {
				t.Errorf("%s cites %s, which no test file defines", src, name)
			}
		}
		for _, m := range designRe.FindAllStringSubmatch(text, -1) {
			for _, sec := range m[1:] {
				if sec != "" && !headings[sec] {
					t.Errorf("%s cites DESIGN §%s, which is not a heading of DESIGN.md", src, sec)
				}
			}
		}
	}
}

// checkRunPattern reports each alternative of a -run pattern that matches
// no test function. Only the top-level part before a subtest slash counts.
func checkRunPattern(t *testing.T, src, pattern string, funcs map[string]bool) {
	t.Helper()
	for _, alt := range strings.Split(pattern, "|") {
		alt, _, _ = strings.Cut(alt, "/")
		if alt == "^$" {
			continue
		}
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("%s: -run alternative %q: %v", src, alt, err)
			continue
		}
		matched := false
		for name := range funcs {
			if re.MatchString(name) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: -run alternative %q matches no test function", src, alt)
		}
	}
}
