package benchscripts

import (
	"testing"

	"repro/internal/core"
)

// TestFusionCorpusEquivalence is the tentpole's corpus-wide property
// test: every benchmark script (Tab. 2 one-liners and Unix50) produces
// byte-identical output with stage fusion enabled and disabled, at
// sequential and parallel widths — including width 16, where the
// aggregation trees are live too.
func TestFusionCorpusEquivalence(t *testing.T) {
	benches := append(append([]Bench{}, OneLiners()...), Unix50()...)
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Prepare(b, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 8, 16} {
				opts := core.DefaultOptions(w)
				fused, err := p.Execute(opts)
				if err != nil {
					t.Fatalf("width %d fused: %v", w, err)
				}
				opts.DisableFusion = true
				unfused, err := p.Execute(opts)
				if err != nil {
					t.Fatalf("width %d unfused: %v", w, err)
				}
				if fused.Hash != unfused.Hash {
					t.Errorf("width %d: fused output diverged from unfused", w)
				}
				if fused.Code != unfused.Code {
					t.Errorf("width %d: fused exit %d vs unfused %d", w, fused.Code, unfused.Code)
				}
			}
		})
	}
}

// TestAggTreeCorpusEquivalence pins tree aggregation against the
// sequential oracle across the corpus at width 16, where trees form (the
// width-4 rows of the correctness tests run the flat aggregate).
func TestAggTreeCorpusEquivalence(t *testing.T) {
	benches := append(append([]Bench{}, OneLiners()...), Unix50()...)
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := Prepare(b, t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := p.Execute(core.DefaultOptions(16))
			if err != nil {
				t.Fatalf("tree: %v", err)
			}
			seq, err := p.Execute(core.Options{Width: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if tree.Hash != seq.Hash {
				t.Errorf("tree aggregation at width 16 diverged from width 1")
			}
		})
	}
}
