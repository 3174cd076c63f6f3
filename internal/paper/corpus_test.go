package paper

import (
	"testing"

	"repro/internal/core"
)

// The corpus correctness suite (every script, sequential against
// parallel, fused against unfused, against a system shell) is in
// internal/benchscripts.

func TestCompileStats(t *testing.T) {
	var b Bench
	for _, b = range OneLiners() {
		if b.Name == "top-n" {
			break
		}
	}
	p, err := prepare(b, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes16, d16, err := p.compileStats(core.DefaultOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	nodes2, _, err := p.compileStats(core.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if nodes16 <= nodes2 {
		t.Errorf("node count must grow with width: %d (w16) vs %d (w2)", nodes16, nodes2)
	}
	if d16 <= 0 {
		t.Error("compile time not measured")
	}
}
