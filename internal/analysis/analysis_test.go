package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtures maps each testdata/src fixture directory to the synthetic import
// path it is loaded under. Scoped analyzers (determinism, pooldiscipline)
// key off the module-relative path, so their fixtures mount under a
// scoped package such as internal/sim.
var fixtures = map[string]string{
	"determinism":      "internal/sim/fixdeterminism",
	"neighborscope":    "internal/mat/fixneighbor",
	"faultdeterminism": "internal/fault/fixinjector",
	"chaosdeterminism": "internal/chaos/fixchaos",
	"agentclock":       "internal/agent/fixclock",
	"noalloc":          "fixnoalloc",
	"floatsafety":      "fixfloat",
	"pool":             "internal/sim/fixpool",
	"aliasing":         "fixalias",
	"exhaustive":       "fixexhaustive",
	"concurrency":      "fixconcurrency",
}

// want expects a diagnostic on the comment's own line; want-above expects
// it on the previous line (for diagnostics anchored at a comment, like the
// stale //eucon:alloc-ok check, where a same-line want cannot be written).
var (
	wantRe      = regexp.MustCompile(`^// want "(.*)"$`)
	wantAboveRe = regexp.MustCompile(`^// want-above "(.*)"$`)
)

// wantComment is one golden diagnostic expectation parsed from a fixture.
type wantComment struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// TestFixtures loads every fixture package, runs the full suite on it, and
// matches the diagnostics against the fixture's want comments: every want
// must be produced on its line, and nothing else may be reported.
func TestFixtures(t *testing.T) {
	loader := newTestLoader(t)
	for dir, rel := range fixtures {
		t.Run(dir, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), loader.ModulePath+"/"+rel)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			wants := parseWants(t, pkg)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", dir)
			}
			for _, d := range Run([]*Package{pkg}) {
				if !consumeWant(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestExitsNonzeroSemantics pins the contract the driver exposes: a fixture
// package must yield diagnostics (euconlint exits 1 on it) and the count
// must cover every analyzer at least once across the suite.
func TestExitsNonzeroSemantics(t *testing.T) {
	loader := newTestLoader(t)
	seen := make(map[string]int)
	for dir, rel := range fixtures {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), loader.ModulePath+"/"+rel)
		if err != nil {
			t.Fatalf("load fixture %s: %v", dir, err)
		}
		diags := Run([]*Package{pkg})
		if len(diags) == 0 {
			t.Errorf("fixture %s: no diagnostics; euconlint would exit 0 on it", dir)
		}
		for _, d := range diags {
			seen[d.Analyzer]++
		}
	}
	for _, a := range Analyzers() {
		if seen[a.Name] == 0 {
			t.Errorf("analyzer %s produced no diagnostic on any fixture", a.Name)
		}
	}
}

// TestRealTreeClean is the self-application gate: the suite must report
// nothing on the repository itself, so `euconlint ./...` exits 0 and
// scripts/check.sh can hard-fail on any regression.
func TestRealTreeClean(t *testing.T) {
	pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module walk is broken", len(pkgs))
	}
	for _, d := range Run(pkgs) {
		t.Errorf("real tree not clean: %s", d)
	}
}

// The full-module load set is shared by every whole-tree test in this
// file: loading and type-checking 30+ packages from source takes seconds,
// and Run never mutates the packages it analyzes.
var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

// loadModule returns the memoized full-module load set, skipping in -short
// mode.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	moduleOnce.Do(func() {
		loader, err := NewLoader(filepath.Join("..", ".."))
		if err != nil {
			moduleErr = err
			return
		}
		modulePkgs, moduleErr = loader.LoadAll()
	})
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	return modulePkgs
}

// TestLoadAllCoversCmd pins that the full-module walk analyzes the command
// packages too, so `euconlint ./...` (and check.sh) covers cmd/ and the
// interprocedural indexes see every implementor in the repository.
func TestLoadAllCoversCmd(t *testing.T) {
	pkgs := loadModule(t)
	got := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		got[p.Rel] = true
	}
	for _, want := range []string{"cmd/euconlint", "cmd/euconsim", "internal/sim", "internal/analysis"} {
		if !got[want] {
			t.Errorf("LoadAll did not load %s", want)
		}
	}
}

// TestNoallocManifestFresh is the freshness gate for the committed noalloc
// manifest: the embedded golden must match what the live tree generates.
func TestNoallocManifestFresh(t *testing.T) {
	pkgs := loadModule(t)
	if got := WriteManifest(pkgs); got != noallocManifestData {
		t.Errorf("noalloc_manifest.golden is stale; regenerate with: go run ./cmd/euconlint -write-noalloc-manifest")
	}
}

// TestChainDeletionProducesFinding suppresses each //eucon:noalloc
// annotation on the benchmark-gated chains in turn and asserts the suite
// reports the loss: no single annotation on the steady-state or DEUCON
// hot path can be deleted without failing lint.
func TestChainDeletionProducesFinding(t *testing.T) {
	pkgs := loadModule(t)
	members := ChainFunctions(pkgs)
	if len(members) < 10 {
		t.Fatalf("chain walk found only %d annotated functions: %v", len(members), members)
	}
	for _, root := range []string{".handleRelease", ".handleCompletion", ".handleSampling", ".stepLocal"} {
		found := false
		for _, m := range members {
			if strings.HasSuffix(m, root) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("chain members do not include a %s root: %v", root, members)
		}
	}
	for _, name := range members {
		diags := RunWithOptions(pkgs, Options{WithoutNoalloc: []string{name}, Analyzers: []string{"noalloc"}})
		if len(diags) == 0 {
			t.Errorf("deleting //eucon:noalloc on %s produced no finding", name)
		}
	}
}

// TestDiagnosticOrderDeterministic pins the total diagnostic order behind
// the text and -json outputs: the same diagnostics in the same order
// regardless of package order, and sorted by (file, line, col, analyzer,
// message).
func TestDiagnosticOrderDeterministic(t *testing.T) {
	loader := newTestLoader(t)
	a, err := loader.LoadDir(filepath.Join("testdata", "src", "noalloc"), loader.ModulePath+"/fixnoalloc")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	b, err := loader.LoadDir(filepath.Join("testdata", "src", "concurrency"), loader.ModulePath+"/fixconcurrency")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	render := func(diags []Diagnostic) []string {
		out := make([]string, len(diags))
		for i, d := range diags {
			out[i] = d.String()
		}
		return out
	}
	fwd := Run([]*Package{a, b})
	rev := render(Run([]*Package{b, a}))
	if len(fwd) == 0 {
		t.Fatal("fixture run produced no diagnostics")
	}
	if strings.Join(render(fwd), "\n") != strings.Join(rev, "\n") {
		t.Errorf("diagnostic order depends on package order:\n%v\nvs\n%v", render(fwd), rev)
	}
	inOrder := sort.SliceIsSorted(fwd, func(i, j int) bool {
		a, b := fwd[i], fwd[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if !inOrder {
		t.Errorf("diagnostics not in (file, line, col, analyzer, message) order:\n%s", strings.Join(render(fwd), "\n"))
	}
}

// analyzerFixtures maps each analyzer to the fixture directories that
// exercise it, for the coverage meta-test.
var analyzerFixtures = map[string][]string{
	"determinism":    {"determinism", "neighborscope", "faultdeterminism", "chaosdeterminism", "agentclock"},
	"noalloc":        {"noalloc"},
	"floatsafety":    {"floatsafety"},
	"pooldiscipline": {"pool"},
	"aliasing":       {"aliasing"},
	"exhaustive":     {"exhaustive"},
	"concurrency":    {"concurrency"},
}

var okRe = regexp.MustCompile(`^// ok:`)

// TestAnalyzerFixtureCoverage is the meta-test behind the fixture suite:
// every analyzer must have at least one positive fixture line (a produced
// diagnostic) and at least one annotated negative (a line marked // ok:
// that stays silent), so both directions of each rule are pinned.
func TestAnalyzerFixtureCoverage(t *testing.T) {
	loader := newTestLoader(t)
	for _, a := range Analyzers() {
		dirs, ok := analyzerFixtures[a.Name]
		if !ok {
			t.Errorf("analyzer %s has no fixture mapping in analyzerFixtures", a.Name)
			continue
		}
		diagCount, okCount := 0, 0
		for _, dir := range dirs {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), loader.ModulePath+"/"+fixtures[dir])
			if err != nil {
				t.Fatalf("load fixture %s: %v", dir, err)
			}
			okLines := make(map[string]bool)
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						if okRe.MatchString(c.Text) {
							pos := pkg.Fset.Position(c.Slash)
							okLines[lineKey(pos.Filename, pos.Line)] = true
							okCount++
						}
					}
				}
			}
			for _, d := range RunWithOptions([]*Package{pkg}, Options{Analyzers: []string{a.Name}}) {
				diagCount++
				if okLines[lineKey(d.Pos.Filename, d.Pos.Line)] {
					t.Errorf("%s: diagnostic on a // ok: line: %s", a.Name, d)
				}
			}
		}
		if diagCount == 0 {
			t.Errorf("analyzer %s has no positive fixture diagnostic", a.Name)
		}
		if okCount == 0 {
			t.Errorf("analyzer %s has no // ok: annotated-negative fixture line", a.Name)
		}
	}
}

// newTestLoader builds a Loader rooted at the repository (two levels above
// internal/analysis).
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("new loader: %v", err)
	}
	return loader
}

// parseWants extracts the // want "..." expectations from a fixture.
func parseWants(t *testing.T, pkg *Package) []*wantComment {
	t.Helper()
	var wants []*wantComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				above := false
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					if m = wantAboveRe.FindStringSubmatch(c.Text); m != nil {
						above = true
					} else if strings.Contains(c.Text, "// want") {
						t.Fatalf("malformed want comment: %s", c.Text)
					} else {
						continue
					}
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Slash)
				line := pos.Line
				if above {
					line--
				}
				wants = append(wants, &wantComment{file: pos.Filename, line: line, re: re})
			}
		}
	}
	return wants
}

// consumeWant marks the first unhit want matching the diagnostic's file,
// line, and "analyzer: message" text.
func consumeWant(wants []*wantComment, d Diagnostic) bool {
	text := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
			w.hit = true
			return true
		}
	}
	return false
}

// TestDirectiveName pins the directive grammar: no space after //, name up
// to the first space, justification ignored.
func TestDirectiveName(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//eucon:noalloc", "noalloc", true},
		{"//eucon:alloc-ok amortized growth", "alloc-ok", true},
		{"// eucon:noalloc", "", false},
		{"//eucon:", "", false},
		{"// plain comment", "", false},
	}
	for _, c := range cases {
		name, ok := directiveName(c.text)
		if name != c.name || ok != c.ok {
			t.Errorf("directiveName(%q) = %q, %v; want %q, %v", c.text, name, ok, c.name, c.ok)
		}
	}
}

// TestAnalyzersHaveDocs keeps the -list output and usage screen meaningful.
func TestAnalyzersHaveDocs(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		names[a.Name] = true
	}
	if len(names) != 7 {
		t.Errorf("expected 7 analyzers, got %d", len(names))
	}
}
