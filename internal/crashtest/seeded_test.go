package crashtest

import (
	"regexp"
	"testing"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/protocheck"
	"hyrisenv/internal/analysis/publishcheck"
	"hyrisenv/internal/analysis/recoverycheck"
)

// TestCrashMatrixSeeded is the static/dynamic cross-check for the
// single-engine persist protocols, the counterpart of
// TestCrashMatrix2PCSeeded: compiled under crosscheck_noelemflush or
// crosscheck_earlypublish (see `make crosscheck`), it proves that
// publishcheck flags the seeded package without running anything and
// that the shadow crash sweep of the standard workload corrupts a real
// database with the same bug. Without one of those tags it skips.
func TestCrashMatrixSeeded(t *testing.T) {
	if seededBug == "" || seededPkg == "./internal/shard" {
		t.Skip("no single-engine crosscheck_* build tag set; nothing is seeded")
	}
	pkgs, err := analysis.LoadTags("../..", []string{seededBug}, seededPkg)
	if err != nil {
		t.Fatalf("loading seeded %s: %v", seededPkg, err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{publishcheck.Analyzer})
	if err != nil {
		t.Fatalf("publishcheck: %v", err)
	}
	want := regexp.MustCompile(seededWant)
	var static string
	for _, d := range diags {
		if want.MatchString(d.Message) {
			static = d.String()
			break
		}
	}
	if static == "" {
		t.Fatalf("static side missed the seeded bug %s: no finding matches %q in %d diagnostic(s) %v",
			seededBug, seededWant, len(diags), diags)
	}

	dyn, err := Run(Config{Dir: t.TempDir(), Shadow: true, MaxBarriers: 200, TearSeeds: []int64{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Failures) == 0 {
		t.Fatalf("dynamic side missed the seeded bug %s: %d crash points, all clean", seededBug, dyn.Points)
	}
	t.Logf("seeded bug %s caught both ways:", seededBug)
	t.Logf("  static:  %s", static)
	t.Logf("  dynamic: %d/%d crash points corrupted, e.g. %s", len(dyn.Failures), dyn.Points, dyn.Failures[0])
}

// TestCrashMatrix2PCSeeded is the static/dynamic cross-check: compiled
// under one of the crosscheck_* build tags (which swap in a seeded
// broken-protocol variant of a shard-package file, see `make
// crosscheck`), it proves the same bug is caught from both sides —
// the whole-program analyzers flag it without running a single
// transaction, and the 2PC crash sweep corrupts a real database with
// it. Without a tag the test skips; the regular matrices already cover
// the correct protocol.
func TestCrashMatrix2PCSeeded(t *testing.T) {
	if seededPkg != "./internal/shard" {
		t.Skip("no 2PC crosscheck_* build tag set; nothing is seeded")
	}

	// Static side: whole-program analysis of the seeded shard package
	// must report the seeded bug.
	pkgs, err := analysis.LoadTags("../..", []string{seededBug}, seededPkg)
	if err != nil {
		t.Fatalf("loading seeded internal/shard: %v", err)
	}
	res, err := analysis.RunProgram(analysis.NewProgram(pkgs),
		[]*analysis.ProgramAnalyzer{protocheck.Analyzer, recoverycheck.Analyzer})
	if err != nil {
		t.Fatalf("whole-program analysis: %v", err)
	}
	want := regexp.MustCompile(seededWant)
	var static string
	for _, d := range res.Diags {
		if want.MatchString(d.Message) {
			static = d.String()
			break
		}
	}
	if static == "" {
		t.Fatalf("static side missed the seeded bug %s: no finding matches %q in %d diagnostic(s) %v",
			seededBug, seededWant, len(res.Diags), res.Diags)
	}

	// Dynamic side: the crash sweep over the same seeded protocol must
	// observe corruption at at least one crash point.
	cfg := Config2PC{Dir: t.TempDir(), Shards: 2, TearSeeds: []int64{0, 0x5eed}}
	if testing.Short() {
		cfg.MaxBarriers = 24
	}
	dyn, err := Run2PC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Failures) == 0 {
		t.Fatalf("dynamic side missed the seeded bug %s: %d crash points, all clean (per-heap barriers %v)",
			seededBug, dyn.Points, dyn.Barriers)
	}

	t.Logf("seeded bug %s caught both ways:", seededBug)
	t.Logf("  static:  %s", static)
	t.Logf("  dynamic: %d/%d crash points corrupted, e.g. %s",
		len(dyn.Failures), dyn.Points, dyn.Failures[0])
}
