package commands

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The oracle for the sort kernel: the closure-chain comparator sort used
// before the pointer-free index, run under sort.SliceStable over one
// []byte per line. It shares only the field helpers (extractKey,
// compareText, parseLeadingFloat) with sort.go; decoration, the 3-way
// comparator, the index, pdqsort, the loser tree and -u are all checked
// against it.

func refLess(cfg *sortConfig) func(a, b []byte) bool {
	keyed := cfg.key != nil
	compareNumeric := func(a, b []byte) int {
		fa, fb := parseLeadingFloat(a), parseLeadingFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return bytes.Compare(a, b)
	}
	cmp := func(a, b []byte) int {
		ka, kb := a, b
		if keyed {
			ka = extractKey(a, cfg.key, cfg.delim)
			kb = extractKey(b, cfg.key, cfg.delim)
		}
		var c int
		if cfg.numeric || (keyed && cfg.key.numeric) {
			c = compareNumeric(ka, kb)
		} else {
			c = compareText(ka, kb, cfg.foldCase, cfg.dictionary)
		}
		if c == 0 && keyed {
			c = bytes.Compare(a, b)
		}
		if cfg.reverse || (keyed && cfg.key.reverse) {
			c = -c
		}
		return c
	}
	return func(a, b []byte) bool { return cmp(a, b) < 0 }
}

// refLines splits text the way the line-IO layer does: a final
// unterminated line is a line.
func refLines(text string) [][]byte {
	if text == "" {
		return nil
	}
	var lines [][]byte
	for _, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		lines = append(lines, []byte(l))
	}
	return lines
}

func refSort(cfg *sortConfig, inputs ...string) string {
	var lines [][]byte
	for _, in := range inputs {
		lines = append(lines, refLines(in)...)
	}
	less := refLess(cfg)
	sort.SliceStable(lines, func(i, j int) bool { return less(lines[i], lines[j]) })
	var out bytes.Buffer
	var prev []byte
	for i, l := range lines {
		if cfg.unique && i > 0 && !less(prev, l) && !less(l, prev) {
			continue
		}
		out.Write(l)
		out.WriteByte('\n')
		prev = l
	}
	return out.String()
}

// sortCase pairs an argv with the configuration it parses to.
type sortCase struct {
	args []string
	cfg  sortConfig
}

var sortCases = []sortCase{
	{nil, sortConfig{}},
	{[]string{"-r"}, sortConfig{reverse: true}},
	{[]string{"-n"}, sortConfig{numeric: true}},
	{[]string{"-rn"}, sortConfig{reverse: true, numeric: true}},
	{[]string{"-u"}, sortConfig{unique: true}},
	{[]string{"-nu"}, sortConfig{numeric: true, unique: true}},
	{[]string{"-f"}, sortConfig{foldCase: true}},
	{[]string{"-fu"}, sortConfig{foldCase: true, unique: true}},
	{[]string{"-d"}, sortConfig{dictionary: true}},
	{[]string{"-k2"}, sortConfig{key: &sortKey{startField: 2}}},
	{[]string{"-k2,3n", "-t:"}, sortConfig{key: &sortKey{startField: 2, endField: 3, numeric: true}, delim: ':'}},
	{[]string{"-m"}, sortConfig{merge: true}},
	{[]string{"-mu"}, sortConfig{merge: true, unique: true}},
	{[]string{"--parallel=3"}, sortConfig{parallel: 3}},
	{[]string{"--parallel=3", "-f"}, sortConfig{parallel: 3, foldCase: true}},
}

// stringFS serves operands from memory (sort -m reads its runs as files).
type stringFS map[string]string

func (fs stringFS) Open(path string) (io.ReadCloser, error) {
	s, ok := fs[path]
	if !ok {
		return nil, errors.New("no such file")
	}
	return io.NopCloser(strings.NewReader(s)), nil
}
func (stringFS) Create(string) (io.WriteCloser, error) { return nil, errors.New("read-only") }
func (stringFS) Append(string) (io.WriteCloser, error) { return nil, errors.New("read-only") }

// checkSortCase runs one invocation over text and returns a description
// of the divergence from the oracle, or "".
func checkSortCase(c sortCase, text string) string {
	want := refSort(&c.cfg, text)
	ctx := &Context{Args: c.args, Stdin: strings.NewReader(text), Stderr: io.Discard}
	if c.cfg.merge {
		// Merge wants sorted runs: cut the text in two at a line boundary
		// and sort each half with the oracle. A stable merge of sorted
		// runs is the stable sort of their concatenation.
		cut := strings.LastIndexByte(text[:len(text)/2], '\n') + 1
		runCfg := c.cfg
		runCfg.unique = false
		a, b := refSort(&runCfg, text[:cut]), refSort(&runCfg, text[cut:])
		want = refSort(&c.cfg, a, b)
		ctx.FS = stringFS{"a": a, "b": b}
		ctx.Args = append(append([]string{}, c.args...), "a", "b")
	}
	var out bytes.Buffer
	ctx.Stdout = &out
	if err := Std().Run("sort", ctx); err != nil {
		return fmt.Sprintf("sort %v: %v", c.args, err)
	}
	if out.String() != want {
		return fmt.Sprintf("sort %v over %d bytes diverges from the reference\n got: %.200q\nwant: %.200q",
			c.args, len(text), out.String(), want)
	}
	return ""
}

// genSortText draws lines that collide where the kernel is delicate:
// shared prefixes past the 8 decorated bytes, zero padding against real
// NULs, high bytes, case and punctuation variants, numbers that tie as
// floats, and fields under both separators.
func genSortText(r *rand.Rand, maxLines int) string {
	atoms := []string{
		"", "a", "A", "b", "ab", "aB", "a-b", "a b", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgH",
		"ABCDEFGH", "\x00", "\x00\x00", "\xff", "\xfe\xff", "é", "É", "0", "-0", "+0", "00", "1", "01",
		"1.0", "1.50", "-1", "-1.5", " 2", "\t2", "10", "9", "1e3", "x1", ".", "-", ":", "::", " ", "  ",
	}
	n := r.Intn(maxLines + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		for k := r.Intn(4); k >= 0; k-- {
			sb.WriteString(atoms[r.Intn(len(atoms))])
			if k > 0 {
				sb.WriteString([]string{" ", ":", "", "\t"}[r.Intn(4)])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSortKernelDifferential checks every supported ordering against the
// oracle over random and hand-picked adversarial inputs.
func TestSortKernelDifferential(t *testing.T) {
	long := strings.Repeat("long line ", 7000) // > 64 KiB: spans blocks
	fixed := []string{
		"",
		"\n",
		"\n\n\n",
		"no newline",
		"b\na\nno newline",
		"same\nsame\nsame\nsame\n",
		"k 1\nk 1\nk 1\n",
		long + "\nb\n" + long + "a\na\n",
		"a\x00\na\n\x00\n\xff\n\x80\nA\n",
		"abcdefgh\nabcdefgh\x00\nabcdefg\nabcdefghz\nabcdefgha\n",
		"-0\n0\n+0\n0.0\n-0.0\n00\n",
		"x:10:b\nx:9:a\ny:9:a\nx:9\nx\n:::\n",
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		text := genSortText(rng, 60)
		if rng.Intn(4) == 0 {
			text = strings.TrimSuffix(text, "\n")
		}
		fixed = append(fixed, text)
	}
	for _, c := range sortCases {
		for _, text := range fixed {
			if msg := checkSortCase(c, text); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// FuzzSortKernel runs the same oracle over fuzzer-chosen bytes.
func FuzzSortKernel(f *testing.F) {
	f.Add([]byte("b\na\n"), uint8(0))
	f.Add([]byte("10\n9\n-0\n0\nx\n"), uint8(3))
	f.Add([]byte("abcdefgh\x00\nabcdefgh\nABCDEFGH"), uint8(7))
	f.Add([]byte("x:2:b\nx:10:a\n"), uint8(10))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if msg := checkSortCase(sortCases[int(mode)%len(sortCases)], string(data)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// sortBenchText is the benchmark's sort.txt shape: n lines of a few
// Zipf-distributed lower- and upper-case words.
func sortBenchText(n int) []byte {
	rng := rand.New(rand.NewSource(20210426))
	zipf := rand.NewZipf(rng, 1.1, 4, 1<<14)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		for w := 0; w < 5; w++ {
			if w > 0 {
				buf.WriteByte(' ')
			}
			rank := zipf.Uint64()
			word := fmt.Sprintf("w%x", rank*2654435761%(1<<20))
			if rank%7 == 0 {
				word = strings.ToUpper(word)
			}
			buf.WriteString(word)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func runSortDiscard(tb testing.TB, text []byte) {
	ctx := &Context{Stdin: bytes.NewReader(text), Stdout: io.Discard, Stderr: io.Discard}
	if err := Std().Run("sort", ctx); err != nil {
		tb.Fatal(err)
	}
}

// TestSortKernelAllocations pins the kernel's allocation profile: the
// arena and the index grow geometrically, so sorting N lines allocates
// O(log N) objects — quadrupling the input adds a handful, where one
// object per line would add tens of thousands.
func TestSortKernelAllocations(t *testing.T) {
	const n = 1 << 13
	small, large := sortBenchText(n), sortBenchText(4*n)
	runSortDiscard(t, large) // warm the block pool
	allocs := func(text []byte) float64 {
		return testing.AllocsPerRun(5, func() { runSortDiscard(t, text) })
	}
	a1, a4 := allocs(small), allocs(large)
	bound := 16 * math.Log2(4*n)
	if a4 > bound {
		t.Fatalf("sorting %d lines allocates %.0f objects, want O(log N) <= %.0f", 4*n, a4, bound)
	}
	if a4-a1 > 24 {
		t.Fatalf("allocations grow with the input: %.0f for %d lines, %.0f for %d", a1, n, a4, 4*n)
	}
}

// BenchmarkSortKernel is the sort leg of the batch-sort workload without
// the process around it: 150k lines through the sort command.
func BenchmarkSortKernel(b *testing.B) {
	text := sortBenchText(150_000)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSortDiscard(b, text)
	}
}
