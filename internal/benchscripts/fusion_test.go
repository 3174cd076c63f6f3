package benchscripts

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
)

// corpus is the Tab. 2 one-liners followed by the Unix50 pipelines.
func corpus() []paper.Bench {
	return append(paper.OneLiners(), paper.Unix50()...)
}

// TestFusionCorpusEquivalence is the corpus-wide property test for
// stage fusion: every benchmark script (Tab. 2 one-liners and Unix50)
// produces byte-identical output with fusion enabled and disabled, at
// sequential and parallel widths — including width 16, where the
// aggregation trees are live too.
func TestFusionCorpusEquivalence(t *testing.T) {
	for _, b := range corpus() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := prepare(t, b)
			for _, w := range []int{1, 8, 16} {
				opts := core.DefaultOptions(w)
				fused, err := p.execute(opts)
				if err != nil {
					t.Fatalf("width %d fused: %v", w, err)
				}
				opts.DisableFusion = true
				unfused, err := p.execute(opts)
				if err != nil {
					t.Fatalf("width %d unfused: %v", w, err)
				}
				if !bytes.Equal(fused.output, unfused.output) {
					t.Errorf("width %d: fused output diverged from unfused", w)
				}
				if fused.code != unfused.code {
					t.Errorf("width %d: fused exit %d vs unfused %d", w, fused.code, unfused.code)
				}
			}
		})
	}
}

// TestAggTreeCorpusEquivalence pins tree aggregation against the
// sequential oracle across the corpus at width 16, where trees form (the
// width-4 rows of the correctness tests run the flat aggregate).
func TestAggTreeCorpusEquivalence(t *testing.T) {
	for _, b := range corpus() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := prepare(t, b)
			tree, err := p.execute(core.DefaultOptions(16))
			if err != nil {
				t.Fatalf("tree: %v", err)
			}
			seq, err := p.execute(core.Options{Width: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if !bytes.Equal(tree.output, seq.output) {
				t.Errorf("tree aggregation at width 16 diverged from width 1")
			}
		})
	}
}
