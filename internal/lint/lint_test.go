package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixturePath returns the import path the loader assigns to a fixture
// package under testdata/src.
func fixturePath(name string) string {
	return "repro/internal/lint/testdata/src/" + name
}

// runFixture lints one fixture package with the given analyzers.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	findings, err := Run(".", []string{"./testdata/src/" + name}, analyzers)
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return findings
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// checkWants cross-checks findings against the fixture's `// want` comments:
// every want line must be hit by a matching finding, and every finding must
// be claimed by a want.
func checkWants(t *testing.T, name string, findings []Finding) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), line, m[1], err)
			}
			wants = append(wants, &want{file: e.Name(), line: line, re: re})
		}
		f.Close()
	}

	for _, fd := range findings {
		claimed := false
		for _, w := range wants {
			if filepath.Base(fd.Pos.Filename) == w.file && fd.Pos.Line == w.line && w.re.MatchString(fd.Message) {
				w.hit = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("unexpected finding: %s", fd)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no matching finding", w.file, w.line, w.re)
		}
	}
}

func TestWalltimeFixture(t *testing.T) {
	checkWants(t, "walltime", runFixture(t, "walltime", Walltime()))
}

func TestWalltimePackageAllowlist(t *testing.T) {
	// The same fixture lints clean when its package is on the analyzer's
	// wall-clock allowlist (the tlsprobe/simclock exemption mechanism).
	findings := runFixture(t, "walltime", Walltime(fixturePath("walltime")))
	for _, f := range findings {
		t.Errorf("allowlisted package still reported: %s", f)
	}
}

func TestGlobalRandFixture(t *testing.T) {
	checkWants(t, "globalrand", runFixture(t, "globalrand", GlobalRand()))
}

func TestMapRangeFixture(t *testing.T) {
	checkWants(t, "maprange", runFixture(t, "maprange", MapRange(fixturePath("maprange"))))
}

func TestMapRangeScope(t *testing.T) {
	// maprange only applies to the configured deterministic packages.
	findings := runFixture(t, "maprange", MapRange("repro/internal/world"))
	for _, f := range findings {
		t.Errorf("out-of-scope package reported: %s", f)
	}
}

func TestExhaustiveFixture(t *testing.T) {
	checkWants(t, "exhaustive", runFixture(t, "exhaustive", Exhaustive()))
}

// fixtureHotAlloc declares the fixture's hot set: a name-prefix pattern,
// a method pattern, and an exact function.
func fixtureHotAlloc() *Analyzer {
	return HotAlloc(
		fixturePath("hotalloc")+".HotWrite*",
		fixturePath("hotalloc")+".Codec.Append",
		fixturePath("hotalloc")+".build",
	)
}

func TestGoroutineOwnerFixture(t *testing.T) {
	checkWants(t, "goroutineowner", runFixture(t, "goroutineowner", GoroutineOwner()))
}

func TestHotAllocFixture(t *testing.T) {
	checkWants(t, "hotalloc", runFixture(t, "hotalloc", fixtureHotAlloc()))
}

func TestChanLeakFixture(t *testing.T) {
	checkWants(t, "chanleak", runFixture(t, "chanleak", ChanLeak(fixturePath("chanleak"))))
}

func TestChanLeakScope(t *testing.T) {
	// chanleak only applies to the configured long-running packages.
	findings := runFixture(t, "chanleak", ChanLeak("repro/internal/core"))
	for _, f := range findings {
		if f.Check == "chanleak" {
			t.Errorf("out-of-scope package reported: %s", f)
		}
	}
}

// TestSuppressions pins the driver's //lint:allow behaviour exactly: which
// findings are suppressed, which survive, what the driver reports about
// broken and unused allows, and the deterministic output order.
func TestSuppressions(t *testing.T) {
	findings := runFixture(t, "suppress", Walltime())
	type key struct {
		line  int
		check string
	}
	got := make([]key, 0, len(findings))
	for _, f := range findings {
		got = append(got, key{f.Pos.Line, f.Check})
	}
	want := []key{
		{23, "walltime"},       // reason-less allow does not suppress
		{23, CheckAllowSyntax}, // ...and is itself reported
		{27, CheckAllowUnused}, // allow with nothing to suppress
		{30, CheckAllowUnused}, // allow naming an unknown check
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("findings (in order) = %v, want %v\nfull: %v", got, want, findings)
	}
	for _, f := range findings {
		if f.Pos.Line == 11 || f.Pos.Line == 17 {
			t.Errorf("suppressed line still reported: %s", f)
		}
	}
	// RunAll keeps the suppressed findings, marked, for -json output.
	all, err := RunAll(".", []string{"./testdata/src/suppress"}, []*Analyzer{Walltime()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var suppressed []key
	for _, f := range all {
		if f.Suppressed {
			suppressed = append(suppressed, key{f.Pos.Line, f.Check})
		}
	}
	if want := []key{{11, "walltime"}, {17, "walltime"}}; fmt.Sprint(suppressed) != fmt.Sprint(want) {
		t.Fatalf("RunAll suppressed findings = %v, want %v", suppressed, want)
	}
}

// TestDeterministicOrder runs the same load under all seven analyzers at
// several loader worker counts and requires byte-identical, sorted output
// from every run.
func TestDeterministicOrder(t *testing.T) {
	analyzers := []*Analyzer{
		Walltime(), GlobalRand(), MapRange(fixturePath("maprange")), Exhaustive(),
		GoroutineOwner(), fixtureHotAlloc(), ChanLeak(fixturePath("chanleak")),
	}
	patterns := []string{
		"./testdata/src/walltime",
		"./testdata/src/globalrand",
		"./testdata/src/maprange",
		"./testdata/src/exhaustive",
		"./testdata/src/goroutineowner",
		"./testdata/src/hotalloc",
		"./testdata/src/chanleak",
	}
	run := func(workers int) []Finding {
		all, err := RunAll(".", patterns, analyzers, workers)
		if err != nil {
			t.Fatal(err)
		}
		return all
	}
	first := run(1)
	for _, workers := range []int{1, 2, 4} {
		again := run(workers)
		if fmt.Sprint(first) != fmt.Sprint(again) {
			t.Fatalf("workers=%d disagrees with workers=1:\n--- first\n%v\n--- again\n%v", workers, first, again)
		}
	}
	resorted := append([]Finding(nil), first...)
	sortFindings(resorted)
	if fmt.Sprint(first) != fmt.Sprint(resorted) {
		t.Fatalf("output not in canonical order:\n%v", first)
	}
	if len(first) < 16 {
		t.Fatalf("expected findings from every fixture, got %d:\n%v", len(first), first)
	}
}

// TestRepoLintsClean is the load-bearing smoke test behind the CI lint
// job: govlint's exact configuration must report nothing on the real tree.
// Reverting the tlssim clock fix, deleting any //lint:allow, or letting a
// taxonomy switch drift makes this test fail. The suppression audit rides
// along: zero allow-unused and allow-syntax findings repo-wide, so a
// stale or malformed //lint:allow rots loudly.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunAll(root, []string{"./..."}, DefaultAnalyzers(), 0)
	if err != nil {
		t.Fatal(err)
	}
	suppressed := make(map[string]int)
	for _, f := range all {
		if f.Suppressed {
			suppressed[f.Check]++
			continue
		}
		t.Errorf("%s", f)
	}
	// Suppression audit: every surviving driver finding above already
	// fails the test, but assert the two audit checks explicitly so the
	// contract is visible even if the loop changes.
	for _, f := range all {
		if !f.Suppressed && (f.Check == CheckAllowUnused || f.Check == CheckAllowSyntax) {
			t.Errorf("suppression audit: %s", f)
		}
	}
	t.Logf("suppressed findings by check: %v", suppressed)
}
