package lint_test

import (
	"path/filepath"
	"testing"

	"viator/internal/lint"
	"viator/internal/lint/linttest"
)

// fixturePath is the fictional import-path root linttest loads fixtures
// under: a det-prefixed final element puts a fixture inside the
// determinism contract (see lint.IsDeterministic).
const fixturePath = "viator/internal/lint/fixture/"

func run(t *testing.T, name string, analyzers ...*lint.Analyzer) {
	t.Helper()
	linttest.Run(t, filepath.Join("testdata", "src", name), fixturePath+name, analyzers...)
}

func TestMapOrder(t *testing.T) { run(t, "detmaporder", lint.MapOrder) }

func TestWallTime(t *testing.T) { run(t, "detwalltime", lint.WallTime) }

func TestTieBreak(t *testing.T) { run(t, "dettiebreak", lint.TieBreak) }

func TestAnnotationGrammar(t *testing.T) { run(t, "detannot", lint.NoAlloc) }

// TestDeadAPI runs the exported-surface pass over one fixture package,
// with the annotation grammar check beside it for the bare //viator:api.
func TestDeadAPI(t *testing.T) { run(t, "deadapi", lint.DeadAPI, lint.NoAlloc) }

// TestOutOfScopePackageExempt runs the determinism-scoped analyzers
// over a fixture whose import path is outside the contract; every
// construct in it would be a finding in a det package, and none may be
// reported.
func TestOutOfScopePackageExempt(t *testing.T) {
	run(t, "plain", lint.MapOrder, lint.WallTime, lint.TieBreak)
}

func TestIsDeterministic(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"viator", true},
		{"viator/internal/sim", true},
		{"viator/internal/sim [viator/internal/sim.test]", true},
		{"viator/internal/telemetry", true},
		{"viator/internal/lint", false},
		{"viator/internal/benchprobe", false},
		{"viator/cmd/viatorbench", false},
		{"viator/internal/lint/fixture/detmaporder", true},
		{"viator/internal/lint/fixture/plain", false},
		// det prefix alone is not enough — it must be a fixture path.
		{"example.com/detours", false},
	}
	for _, c := range cases {
		if got := lint.IsDeterministic(c.path); got != c.want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
