package publishcheck_test

import (
	"testing"

	"hyrisenv/internal/analysis"
	"hyrisenv/internal/analysis/publishcheck"
)

func TestFixture(t *testing.T) {
	analysis.Fixture(t, analysis.FixtureDir(), []*analysis.Analyzer{publishcheck.Analyzer}, "./publish")
}

func TestPersistCheck(t *testing.T) {
	analysis.Fixture(t, analysis.FixtureDir(), []*analysis.Analyzer{publishcheck.Analyzer}, "./persist")
}

// TestAliasTaint covers writes through derived slices and through
// parameters bound to Bytes-backed memory, and volatile buffers that
// stay exempt.
func TestAliasTaint(t *testing.T) {
	analysis.Fixture(t, analysis.FixtureDir(), []*analysis.Analyzer{publishcheck.Analyzer}, "./alias")
}
