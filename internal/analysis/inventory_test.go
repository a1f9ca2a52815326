package analysis_test

import (
	"testing"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/deadlinecheck"
	"hyrisenv/internal/analysis/publishcheck"
	"hyrisenv/internal/analysis/wirecodecheck"
)

// TestProductionSuppressionsLoadBearing pins the suppression inventory
// documented in README.md: every //nvmcheck:ignore in production code
// must still absorb exactly the findings it was written for. A count
// above the pin means new findings are hiding under an old comment; a
// count below means the suppression went stale and must be deleted.
// (The nvm arena-walk recoverycheck suppression is pinned separately by
// recoverycheck.TestNvmFsckSuppressionLoadBearing. Package pstruct
// carries none: its deliberately broken append protocol is a build-tag
// variant the analyzers are run on by `make crosscheck`, not a
// suppressed branch.)
func TestProductionSuppressionsLoadBearing(t *testing.T) {
	cases := []struct {
		pattern  string
		analyzer *analysis.Analyzer
		want     int
	}{
		{"./internal/server", deadlinecheck.Analyzer, 1},
		{"./internal/server", wirecodecheck.Analyzer, 1},
		{"./internal/pstruct", publishcheck.Analyzer, 0},
	}
	for _, tc := range cases {
		pkgs, err := analysis.Load("../..", tc.pattern)
		if err != nil {
			t.Fatalf("loading %s: %v", tc.pattern, err)
		}
		res, err := analysis.RunDetailed(pkgs, []*analysis.Analyzer{tc.analyzer})
		if err != nil {
			t.Fatalf("running %s on %s: %v", tc.analyzer.Name, tc.pattern, err)
		}
		if got := res.Suppressed[tc.analyzer.Name]; got != tc.want {
			t.Errorf("%s on %s: %d reasoned suppression(s) absorbed a finding, want %d — update the README inventory and this pin together",
				tc.analyzer.Name, tc.pattern, got, tc.want)
		}
		for _, d := range res.Diags {
			t.Errorf("unexpected surviving finding in %s: %s", tc.pattern, d)
		}
	}
}
