package crashtest

import (
	"regexp"
	"testing"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/protocheck"
	"hyrisenv/internal/analysis/publishcheck"
	"hyrisenv/internal/analysis/recoverycheck"
)

// TestCrashMatrixSeeded is the static/dynamic cross-check: compiled
// under one of the crosscheck_* build tags (each swaps one file of the
// engine for a deliberately broken variant, see `make crosscheck`), it
// proves the same bug is caught from both sides — the protocol analyzers
// flag it in the seeded package without running a single transaction,
// and the shadow crash sweep corrupts a real database with it: a fleet
// of two for a seeded shard-package (two-phase commit) bug, a fleet of
// one otherwise. Without a tag it skips; the regular matrices already
// cover the correct protocol.
func TestCrashMatrixSeeded(t *testing.T) {
	if seededBug == "" {
		t.Skip("no crosscheck_* build tag set; nothing is seeded")
	}

	// Static side: every protocol analyzer over the seeded package.
	pkgs, err := analysis.LoadTags("../..", []string{seededBug}, seededPkg)
	if err != nil {
		t.Fatalf("loading seeded %s: %v", seededPkg, err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{publishcheck.Analyzer})
	if err != nil {
		t.Fatalf("per-package analysis: %v", err)
	}
	res, err := analysis.RunProgram(analysis.NewProgram(pkgs),
		[]*analysis.ProgramAnalyzer{protocheck.Analyzer, recoverycheck.Analyzer})
	if err != nil {
		t.Fatalf("whole-program analysis: %v", err)
	}
	diags = append(diags, res.Diags...)
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

	// Dynamic side: the crash sweep over the same seeded protocol must
	// observe corruption at at least one crash point.
	shards := 1
	if seededPkg == "./internal/shard" {
		shards = 2
	}
	dyn, err := Run(Config{Shards: shards, Shadow: true, MaxBarriers: 200, TearSeeds: []int64{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Failures) == 0 {
		t.Fatalf("dynamic side missed the seeded bug %s: %d crash points, all clean (per-heap barriers %v)",
			seededBug, dyn.Points, dyn.Barriers)
	}
	t.Logf("seeded bug %s caught both ways:", seededBug)
	t.Logf("  static:  %s", static)
	t.Logf("  dynamic: %d/%d crash points corrupted, e.g. %s", len(dyn.Failures), dyn.Points, dyn.Failures[0])
}
