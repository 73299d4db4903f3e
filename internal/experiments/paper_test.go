package experiments

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/hypertester/hypertester/internal/raceflag"
)

// experimentsDoc holds the golden of the paper evaluation: one ```text block
// per experiment, its first line the table's own "== <ID> — <Title> ==".
const experimentsDoc = "../../EXPERIMENTS.md"

// TestPaperTables is the paper evaluation's one harness, in three halves.
//
// quick runs every experiment in quick mode on the worker pool and holds
// each headline cell to testdata/headlines.golden bit for bit; no
// same-picosecond tie may be left undecided (DESIGN.md §9.6).
//
// simworkers=1 runs each experiment at full windows, seed 1, on the
// sequential engine, and holds its rendered table plus the counts line of
// its testers to the block of the same ID in EXPERIMENTS.md. -update
// rewrites the blocks; -v logs every table, so the test is also the viewer.
// simworkers=4 runs the same on the parallel LP engine and holds the tables
// only: cross-LP ports keep events that the sequential engine accounts, so
// the counts differ by design. Both full halves skip under -short and the
// race detector.
func TestPaperTables(t *testing.T) {
	specs := Specs()
	t.Run("quick", func(t *testing.T) { quickHeadlines(t, specs) })

	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	blocks, err := paperBlocks(doc)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rendered := false
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("simworkers=%d", workers), func(t *testing.T) {
			if testing.Short() || raceflag.Enabled {
				t.Skip("full windows: the whole evaluation at the paper's scale")
			}
			for _, sp := range specs {
				t.Run(sp.ID, func(t *testing.T) {
					t.Parallel()
					got := paperBlock(t, sp, Config{Seed: 1, SimWorkers: workers}, workers == 1)
					t.Logf("\n%s", got)
					mu.Lock()
					want, ok := blocks[sp.ID]
					if ok && workers == 1 && *update {
						doc = strings.Replace(doc, "```text\n"+want, "```text\n"+got, 1)
						blocks[sp.ID], want, rendered = got, got, true
					}
					mu.Unlock()
					if !ok {
						t.Fatalf("%s has no ```text block for %s; add one whose first line is %q",
							experimentsDoc, sp.ID, "== "+sp.ID+" — ")
					}
					if workers != 1 {
						want = tableOnly(want)
					}
					if got != want {
						t.Errorf("%s differs from its block in %s (-update rewrites it): %s",
							sp.ID, experimentsDoc, firstDiff(got, want))
					}
				})
			}
		})
	}
	for id := range blocks {
		if !slices.ContainsFunc(specs, func(sp Spec) bool { return sp.ID == id }) {
			t.Errorf("%s has a block for %q, which is not an experiment", experimentsDoc, id)
		}
	}
	if rendered {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// quickHeadlines is TestPaperTables' quick half.
func quickHeadlines(t *testing.T, specs []Spec) {
	var stats simStats
	results := Run(Config{Quick: true, Seed: 1, stats: &stats}, specs)
	if len(results) != 18 {
		t.Fatalf("Run(Specs()) ran %d experiments, want 18", len(results))
	}
	if _, loop := stats.totals(); loop.ResidualTies != 0 {
		t.Errorf("%d of %d foreign same-picosecond ties were undecided by (schedAt, parent schedAt)",
			loop.ResidualTies, loop.Ties)
	}
	var got strings.Builder
	for i, r := range results {
		for _, n := range r.Notes {
			if strings.HasPrefix(n, "ERROR") || strings.HasPrefix(n, "PANIC") {
				t.Errorf("%s failed: %s", r.ID, n)
			}
		}
		v, unit, err := headline(specs[i], r)
		if err != nil {
			t.Errorf("headline metric: %v", err)
		}
		fmt.Fprintf(&got, "%s\t%s\t%s\n", r.ID, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	golden, err := os.ReadFile("testdata/headlines.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	if got.String() != want.String() {
		t.Errorf("headlines drifted from testdata/headlines.golden:\n--- got\n%s--- want\n%s", got.String(), want.String())
	}
}

// paperBlock runs sp under cfg and renders its golden block: the table with
// trailing spaces trimmed and, with counts set, a blank line and one line of
// what its testers cost the scheduler — events executed, next to the idle
// recirculation passes the loop model accounted instead.
func paperBlock(t *testing.T, sp Spec, cfg Config, counts bool) string {
	var stats simStats
	cfg.stats = &stats
	res := runSpec(cfg, sp)
	if _, _, err := headline(sp, res); err != nil {
		t.Errorf("headline metric: %v", err)
	}
	events, loop := stats.totals()
	if loop.ResidualTies != 0 {
		t.Errorf("%d of %d foreign same-picosecond ties were undecided", loop.ResidualTies, loop.Ties)
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(res.String(), "\n"), "\n") {
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	if counts && events > 0 {
		fmt.Fprintf(&b, "\n(tester: %d events executed, %d idle passes elided, %d loop hops live, %d wakes, %d ties of which %d residual)\n",
			events, loop.ElidedPasses, loop.LiveHops, loop.Wakes, loop.Ties, loop.ResidualTies)
	}
	return b.String()
}

// tableOnly drops a block's counts line.
func tableOnly(block string) string {
	if i := strings.Index(block, "\n\n(tester: "); i >= 0 {
		return block[:i+1]
	}
	return block
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// paperBlocks maps the body of each ```text block in doc to the experiment
// ID its first line names.
func paperBlocks(doc string) (map[string]string, error) {
	blocks := map[string]string{}
	for _, part := range strings.Split(doc, "\n```text\n")[1:] {
		body, _, ok := strings.Cut(part, "\n```\n")
		if !ok {
			return nil, fmt.Errorf("%s: unterminated ```text block", experimentsDoc)
		}
		first, _, _ := strings.Cut(body, "\n")
		id, _, ok := strings.Cut(strings.TrimPrefix(first, "== "), " — ")
		if !ok || !strings.HasPrefix(first, "== ") {
			return nil, fmt.Errorf("%s: a ```text block starts %q, not \"== <ID> — \"", experimentsDoc, first)
		}
		if _, dup := blocks[id]; dup {
			return nil, fmt.Errorf("%s: two blocks for %s", experimentsDoc, id)
		}
		blocks[id] = body + "\n"
	}
	return blocks, nil
}
