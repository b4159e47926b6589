package lint_test

import (
	"testing"

	"github.com/lpd-epfl/mvtl/internal/lint"
	"github.com/lpd-epfl/mvtl/internal/lint/analysis"
	"github.com/lpd-epfl/mvtl/internal/lint/analysistest"
)

// TestCodecPairAnalyzer proves missing decoder / two decoders / missing
// corpus entry / missing corpus are each reported, against the syntactic
// codecCases scan of (parse-only) test files.
func TestCodecPairAnalyzer(t *testing.T) {
	analysistest.Run(t, []*analysis.Analyzer{lint.CodecPairAnalyzer},
		"testdata/src/codecpair/bad",
		"testdata/src/codecpair/nocorpus",
	)
}
