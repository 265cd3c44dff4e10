package floatcmp_test

import (
	"testing"

	"saqp/internal/analysis/analysistest"
	"saqp/internal/analysis/floatcmp"
)

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, floatcmp.Analyzer, "testdata/src/a")
}

func TestScope(t *testing.T) {
	for _, pkg := range []string{
		"saqp/internal/selectivity",
		"saqp/internal/predict",
		"saqp/internal/histogram",
		"saqp/internal/trace",
	} {
		if !floatcmp.Analyzer.AppliesTo(pkg) {
			t.Errorf("floatcmp should apply to %s", pkg)
		}
	}
	// core is deliberately out of scope.
	if floatcmp.Analyzer.AppliesTo("saqp/internal/core") {
		t.Error("floatcmp should not apply to saqp/internal/core")
	}
}
