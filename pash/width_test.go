package pash

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmallRegionStaysLocal: with Width a ceiling, a region whose input
// does not pay for a second replica is planned at width 1, and a width-1
// plan has nothing to ship — a worker pool sees no byte of it. The same
// script over a 2 MB file is planned wide and ships, as it always did.
func TestSmallRegionStaysLocal(t *testing.T) {
	dir := t.TempDir()
	pool := NewWorkerPool(startStreamWorker(t, dir, "w1.sock"), startStreamWorker(t, dir, "w2.sock"))
	line := "The quick zebra jumps over the lazy dog\n"
	for name, size := range map[string]int{"small.txt": 4 << 10, "big.txt": 2 << 20} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(strings.Repeat(line, size/len(line))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sess := NewSession(Options{Width: 4, Preset: Planned})
	sess.Dir = dir
	sess.UseWorkers(pool)
	shipped := func() (n int64) {
		for _, ws := range pool.Stats() {
			n += ws.Requests + ws.BytesOut + ws.WireBytesOut + ws.BytesIn
		}
		return n
	}
	run := func(file string) (string, InterpStats) {
		t.Helper()
		var out bytes.Buffer
		code, st, err := sess.RunStats(context.Background(), "cat "+file+" | tr A-Z a-z | grep -c zebra", nil, &out, os.Stderr)
		if err != nil || code != 0 {
			t.Fatalf("%s: exit %d: %v", file, code, err)
		}
		return out.String(), st
	}

	out, st := run("small.txt")
	if out != "102\n" || st.MaxNodes > 3 {
		t.Errorf("small.txt: output %q from %d nodes (%v), want 102 from an unsplit region", out, st.MaxNodes, st.Widths)
	}
	if n := shipped(); n != 0 {
		t.Errorf("small.txt: the pool saw %d requests and bytes, want a region that stayed local: %+v", n, pool.Stats())
	}
	out, st = run("big.txt")
	if out != "52428\n" {
		t.Errorf("big.txt: output %q (%v)", out, st.Widths)
	}
	if shipped() == 0 {
		t.Errorf("big.txt: nothing shipped to the pool at %v", st.Widths)
	}
}
