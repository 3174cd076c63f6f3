package commands

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestLoserTreeMergeEquivalence checks the k-way loser-tree merge
// against the reference: stably sorting the concatenation. Inputs have
// heavy duplication so the stability tie-break (equal lines surface in
// source order) is actually exercised.
func TestLoserTreeMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := []string{"ant", "bee", "cat", "dog", "ant", "eel"}
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		var all []string
		runs := make([][]string, k)
		for i := range runs {
			n := rng.Intn(20)
			run := make([]string, n)
			for j := range run {
				run[j] = words[rng.Intn(len(words))] + fmt.Sprint(rng.Intn(3))
			}
			sort.Strings(run)
			runs[i] = run
			all = append(all, run...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i] < all[j] })

		readers := make([]io.Reader, k)
		for i, run := range runs {
			readers[i] = strings.NewReader(strings.Join(run, "\n") + lineTerm(run))
		}
		var buf bytes.Buffer
		lw := NewLineWriter(&buf)
		if err := mergeSorted(readers, lw, (&sortConfig{}).order(), false, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		want := strings.Join(all, "\n") + lineTerm(all)
		if buf.String() != want {
			t.Fatalf("trial %d (k=%d): merge diverged\ngot:  %q\nwant: %q", trial, k, buf.String(), want)
		}
	}
}

func lineTerm(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return "\n"
}

// TestLoserTreeStability pins the source-order tie-break directly.
func TestLoserTreeStability(t *testing.T) {
	lt := newLoserTree(4, (&sortConfig{}).order())
	for i := 0; i < 4; i++ {
		lt.lines[i] = []byte("same")
		lt.live[i] = true
	}
	lt.build()
	var order []int
	for live := 4; live > 0; live-- {
		w := lt.winner()
		order = append(order, w)
		lt.live[w] = false
		lt.lines[w] = nil
		lt.replay(w)
	}
	for i, w := range order {
		if w != i {
			t.Fatalf("tie-break order %v, want [0 1 2 3]", order)
		}
	}
}
