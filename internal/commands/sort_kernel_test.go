package commands

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The oracle for the sort kernel: GNU sort's compare() under LC_ALL=C,
// restated without the kernel's machinery and run under sort.SliceStable
// over one []byte per line. Each line's key is cut from a table of field
// spans, numbers are read as exact rationals, and -f/-d transform a copy;
// the kernel's decoration, index, multikey quicksort, comparator sort,
// loser tree and -u are all checked against it. The tie rules:
//   - no key (no -k, -n, -f, -d or -b): the whole line, bytewise; -r
//     reverses it;
//   - keys: each key in turn, then — unless -s or -u — the whole line
//     bytewise as a last resort, which -r reverses too; with -s or -u,
//     key ties keep input order, which -r does not reverse;
//   - -u prints the first line, in that order, of each run of equal ones.

// refKeys are the keys cfg compares by, with the global options
// inherited by a -k key that has no ordering letters of its own; none
// for a bytewise order.
func refKeys(cfg *sortConfig) []*sortKey {
	global := sortKey{startField: 1, numeric: cfg.numeric, reverse: cfg.reverse,
		foldCase: cfg.foldCase, dictionary: cfg.dictionary, skipStart: cfg.blanks, skipEnd: cfg.blanks}
	if len(cfg.keys) == 0 {
		if cfg.numeric || cfg.foldCase || cfg.dictionary || cfg.blanks {
			return []*sortKey{&global}
		}
		return nil
	}
	var keys []*sortKey
	for _, k := range cfg.keys {
		if !(k.numeric || k.foldCase || k.dictionary || k.skipStart || k.skipEnd || k.reverse) {
			inherited := global
			inherited.startField, inherited.startChar, inherited.endField, inherited.endChar =
				k.startField, k.startChar, k.endField, k.endChar
			k = &inherited
		}
		keys = append(keys, k)
	}
	return keys
}

// refKeyText cuts the key out of a line from its field spans: under -t
// the text between separators, otherwise a run of blanks and the
// non-blanks after it.
func refKeyText(line []byte, k *sortKey, delim byte) []byte {
	blank := func(c byte) bool { return c == ' ' || c == '\t' }
	var starts, ends []int
	if delim != 0 {
		s := 0
		for i := 0; i <= len(line); i++ {
			if i == len(line) || line[i] == delim {
				starts, ends = append(starts, s), append(ends, i)
				s = i + 1
			}
		}
	} else {
		for i := 0; i < len(line); {
			s := i
			for i < len(line) && blank(line[i]) {
				i++
			}
			for i < len(line) && !blank(line[i]) {
				i++
			}
			starts, ends = append(starts, s), append(ends, i)
		}
	}
	at := func(field int, skip bool, char int) int {
		p := len(line)
		if field-1 < len(starts) {
			p = starts[field-1]
		}
		for skip && p < len(line) && blank(line[p]) {
			p++
		}
		return min(len(line), p+char)
	}
	beg := at(k.startField, k.skipStart, max(k.startChar-1, 0))
	end := len(line)
	switch {
	case k.endField == 0:
	case k.endChar == 0:
		if k.endField-1 < len(ends) {
			end = ends[k.endField-1]
		}
	default:
		end = at(k.endField, k.skipEnd, k.endChar)
	}
	return line[beg:max(beg, end)]
}

var refNumber = regexp.MustCompile(`^[ \t]*(-?)([0-9]*)(?:\.([0-9]*))?`)

// refValue is sort -n's reading of a key as an exact rational.
func refValue(key []byte) *big.Rat {
	m := refNumber.FindSubmatch(key)
	r, _ := new(big.Rat).SetString(string(m[1]) + "0" + string(m[2]) + "." + string(m[3]) + "0")
	return r
}

// refSortLine is a line with its keys already read.
type refSortLine struct {
	line []byte
	text [][]byte   // each key, -d filtered and -f folded
	num  []*big.Rat // -n: each key's value
}

// refCompare is GNU sort's compare(): the keys (if any) in turn, then
// the last resort.
func refCompare(cfg *sortConfig) (read func([]byte) refSortLine, cmp func(a, b refSortLine) int) {
	keys := refKeys(cfg)
	read = func(line []byte) refSortLine {
		l := refSortLine{line: line}
		for _, key := range keys {
			var text []byte
			for _, c := range refKeyText(line, key, cfg.delim) {
				if key.dictionary && !(c == ' ' || c == '\t' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
					continue
				}
				if key.foldCase && c >= 'a' && c <= 'z' {
					c -= 'a' - 'A'
				}
				text = append(text, c)
			}
			l.text = append(l.text, text)
			if key.numeric {
				l.num = append(l.num, refValue(text))
			} else {
				l.num = append(l.num, nil)
			}
		}
		return l
	}
	cmp = func(a, b refSortLine) int {
		for i, key := range keys {
			var c int
			if key.numeric {
				c = a.num[i].Cmp(b.num[i])
			} else {
				c = bytes.Compare(a.text[i], b.text[i])
			}
			if key.reverse {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		if len(keys) > 0 && (cfg.stable || cfg.unique) {
			return 0
		}
		c := bytes.Compare(a.line, b.line)
		if cfg.reverse {
			c = -c
		}
		return c
	}
	return read, cmp
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
	read, cmp := refCompare(cfg)
	var lines []refSortLine
	for _, in := range inputs {
		for _, l := range refLines(in) {
			lines = append(lines, read(l))
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return cmp(lines[i], lines[j]) < 0 })
	var out bytes.Buffer
	var prev refSortLine
	for i, l := range lines {
		if cfg.unique && i > 0 && cmp(prev, l) == 0 {
			continue
		}
		out.Write(l.line)
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
	{[]string{"-k2"}, sortConfig{keys: []*sortKey{{startField: 2}}}},
	{[]string{"-k2,3n", "-t:"}, sortConfig{keys: []*sortKey{{startField: 2, endField: 3, numeric: true}}, delim: ':'}},
	{[]string{"-m"}, sortConfig{merge: true}},
	{[]string{"-mu"}, sortConfig{merge: true, unique: true}},
	{[]string{"--parallel=3"}, sortConfig{parallel: 3}},
	{[]string{"--parallel=3", "-f"}, sortConfig{parallel: 3, foldCase: true}},
	{[]string{"--parallel=3", "-u"}, sortConfig{parallel: 3, unique: true}},
	{[]string{"-s", "-k2,2"}, sortConfig{stable: true, keys: []*sortKey{{startField: 2, endField: 2}}}},
	{[]string{"-fs"}, sortConfig{foldCase: true, stable: true}},
	{[]string{"-ru"}, sortConfig{reverse: true, unique: true}},
	{[]string{"-nru"}, sortConfig{numeric: true, reverse: true, unique: true}},
	{[]string{"-u", "-k2"}, sortConfig{unique: true, keys: []*sortKey{{startField: 2}}}},
	{[]string{"-r", "-k2,2f"}, sortConfig{reverse: true, keys: []*sortKey{{startField: 2, endField: 2, foldCase: true}}}},
	{[]string{"-b", "-k1.2,2.3"}, sortConfig{blanks: true, keys: []*sortKey{{startField: 1, startChar: 2, endField: 2, endChar: 3}}}},
	{[]string{"-k2.2b,3d"}, sortConfig{keys: []*sortKey{{startField: 2, startChar: 2, skipStart: true, endField: 3, dictionary: true}}}},
	{[]string{"-bdu"}, sortConfig{blanks: true, dictionary: true, unique: true}},
	{[]string{"-k2,2r"}, sortConfig{keys: []*sortKey{{startField: 2, endField: 2, reverse: true}}}},
	{[]string{"-k1,1n", "-k2,2n"}, sortConfig{keys: []*sortKey{{startField: 1, endField: 1, numeric: true}, {startField: 2, endField: 2, numeric: true}}}},
	{[]string{"-r", "-k2,2", "-k1,1n", "-t:"}, sortConfig{reverse: true, keys: []*sortKey{{startField: 2, endField: 2}, {startField: 1, endField: 1, numeric: true}}, delim: ':'}},
	{[]string{"-u", "-k1,1f", "-k3"}, sortConfig{unique: true, keys: []*sortKey{{startField: 1, endField: 1, foldCase: true}, {startField: 3}}}},
	{[]string{"-m", "-k1,1n", "-k2r"}, sortConfig{merge: true, keys: []*sortKey{{startField: 1, endField: 1, numeric: true}, {startField: 2, reverse: true}}}},
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

// checkSortCase runs one invocation over text at each limit and returns
// a description of the first divergence from the oracle, or "". Limit 0
// is none; at a positive limit the command prints at least that many
// leading lines of its output: sort -u prints them all, every other form
// exactly that many.
func checkSortCase(c sortCase, text string, limits []int) string {
	want := refSort(&c.cfg, text)
	args, fs := c.args, FS(nil)
	if c.cfg.merge {
		// Merge wants sorted runs: cut the text in two at a line boundary
		// and sort each half with the oracle. A stable merge of sorted
		// runs is the stable sort of their concatenation.
		cut := strings.LastIndexByte(text[:len(text)/2], '\n') + 1
		runCfg := c.cfg
		runCfg.unique = false
		a, b := refSort(&runCfg, text[:cut]), refSort(&runCfg, text[cut:])
		want = refSort(&c.cfg, a, b)
		fs = stringFS{"a": a, "b": b}
		args = append(append([]string{}, c.args...), "a", "b")
	}
	for _, limit := range limits {
		wantAt := want
		if limit > 0 && !c.cfg.unique {
			wantAt = strings.Join(strings.SplitAfter(want, "\n")[:min(limit, strings.Count(want, "\n"))], "")
		}
		var out bytes.Buffer
		ctx := &Context{Args: args, Stdin: strings.NewReader(text), Stdout: &out, Stderr: io.Discard, FS: fs, Limit: limit}
		if err := Std().Run("sort", ctx); err != nil {
			return fmt.Sprintf("sort %v at limit %d: %v", c.args, limit, err)
		}
		if out.String() != wantAt {
			return fmt.Sprintf("sort %v at limit %d over %d bytes diverges from the reference\n got: %.200q\nwant: %.200q",
				c.args, limit, len(text), out.String(), wantAt)
		}
	}
	return ""
}

// sortLimits are the limits a text of n lines is sorted at: none, 1, a
// K below n, n, and past n.
func sortLimits(text string) []int {
	n := strings.Count(text, "\n")
	return []int{0, 1, max(n/3, 2), n, n + 7}
}

// genCountText draws uniq -c output, the input sort -rn meets most:
// counts padded to seven columns, most of them small and equal, some
// unpadded or zero-led, and some numbers too long for their decoration
// to hold (numExact) that agree in the digits it does hold. A word list
// of three makes whole lines tie too.
func genCountText(r *rand.Rand, maxLines int) string {
	n := r.Intn(maxLines + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		count := fmt.Sprintf("%7d", 1+r.Intn(3)*r.Intn(3))
		switch r.Intn(8) {
		case 0:
			count = fmt.Sprintf("12345678901234%d", r.Intn(3))
		case 1:
			count = fmt.Sprintf("%0*d", 1+r.Intn(3), 1+r.Intn(3))
		}
		fmt.Fprintf(&sb, "%s %s\n", count, []string{"a", "b", "water"}[r.Intn(3)])
	}
	return sb.String()
}

// genSortText draws lines that collide where the kernel is delicate:
// shared prefixes past the 8 decorated bytes, zero padding against real
// NULs, high bytes, case and punctuation variants, numbers that are
// equal, and numbers too long for their decoration, and fields under
// both separators.
func genSortText(r *rand.Rand, maxLines int) string {
	atoms := []string{
		"", "a", "A", "b", "ab", "aB", "a-b", "a b", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgH",
		"ABCDEFGH", "\x00", "\x00\x00", "\xff", "\xfe\xff", "é", "É", "0", "-0", "+0", "00", "1", "01",
		"1.0", "1.50", "-1", "-1.5", " 2", "\t2", "10", "9", "1e3", "x1", ".", "-", ":", "::", " ", "  ",
		"12345678901234567", "12345678901234568", "-12345678901234567", "1234567890123.4", "0.00000000000001",
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
	// The multikey quicksort's edges, checked under every ordering it
	// sorts (those without a key): one equal group all the way down, a
	// shared prefix of 125 words, lines that end on either side of a word
	// boundary with real NULs where a shorter line has padding, and
	// inputs that defeat a naive pivot.
	rng := rand.New(rand.NewSource(16))
	var prefixed, padded strings.Builder
	prefix := strings.Repeat("p", 1000)
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&prefixed, "%s%x\n", prefix, rng.Intn(1<<20))
	}
	var pads []string
	for _, stem := range []string{"", "a", "abcdefg", "abcdefgh", "abcdefgh\x00a"} {
		pads = append(pads, stem)
		for _, n := range []int{7, 8, 9, 15, 16, 17} {
			if n > len(stem) {
				pads = append(pads, stem+strings.Repeat("\x00", n-len(stem)))
			}
		}
	}
	for i := 0; i < 400; i++ {
		padded.WriteString(pads[rng.Intn(len(pads))] + "\n")
	}
	const n = 50_000
	var ascending, descending, organPipe strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&ascending, "%08d\n", i)
		fmt.Fprintf(&descending, "%08d\n", n-i)
		fmt.Fprintf(&organPipe, "%08d\n", min(i, n-i))
	}
	// Sorted in runs of 50 by --parallel=3, each run's head has been
	// reloaded past its first word: a merge or -u that read those keys
	// would put zzzzzzzzA first, or keep one of abcdefghS and xxxxxxxxS.
	stale := strings.Repeat("zzzzzzzzA\n", 50) + strings.Repeat("bbbbbbbbz\n", 50) +
		strings.Repeat("abcdefghS\n", 25) + strings.Repeat("xxxxxxxxS\n", 25)
	bytewise := []string{strings.Repeat("identical line\n", 10_000), prefixed.String(), padded.String(),
		ascending.String(), descending.String(), organPipe.String(), stale}
	for trial := 0; trial < 300; trial++ {
		text := genSortText(rng, 60)
		if rng.Intn(4) == 0 {
			text = strings.TrimSuffix(text, "\n")
		}
		fixed = append(fixed, text)
	}
	for trial := 0; trial < 60; trial++ {
		fixed = append(fixed, genCountText(rng, 300))
	}
	for _, c := range sortCases {
		texts := fixed
		if refKeys(&c.cfg) == nil {
			texts = slices.Concat(fixed, bytewise)
		}
		for _, text := range texts {
			if msg := checkSortCase(c, text, sortLimits(text)); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// TestNumImageMatchesParts checks the one-pass numImage against the
// image built from numParts' integer and fraction digits, over numbers
// with leading and trailing zeros, signs, blanks, long digit runs on
// either side of the point and every digit count around 13 and 255.
func TestNumImageMatchesParts(t *testing.T) {
	ref := func(s []byte) uint64 {
		neg, whole, frac := numParts(s)
		img := ^uint64(0)
		if len(whole) < 255 {
			img = uint64(1)<<63 | uint64(len(whole))<<55
			digits := append(append([]byte(nil), whole...), frac...)
			for n, c := range digits {
				if n == 13 {
					img |= 1
					break
				}
				img |= uint64(c-'0') << (51 - 4*n)
			}
		}
		if neg {
			img = ^img
		}
		return img
	}
	rng := rand.New(rand.NewSource(44))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "0000123456789"[rng.Intn(13)]
		}
		return string(b)
	}
	lengths := []int{0, 1, 2, 12, 13, 14, 20, 254, 255, 256}
	for trial := 0; trial < 20000; trial++ {
		s := []string{"", " ", "\t "}[rng.Intn(3)] + []string{"", "-", "+"}[rng.Intn(3)] +
			strings.Repeat("0", rng.Intn(3)) + digits(lengths[rng.Intn(len(lengths))])
		if rng.Intn(2) == 0 {
			s += "." + digits(lengths[rng.Intn(len(lengths))]) + strings.Repeat("0", rng.Intn(3))
		}
		s += []string{"", "x", " 7", ".5"}[rng.Intn(4)]
		if got, want := numImage([]byte(s)), ref([]byte(s)); got != want {
			t.Fatalf("numImage(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// FuzzSortKernel runs the same oracle over fuzzer-chosen bytes, orders
// and limits.
func FuzzSortKernel(f *testing.F) {
	f.Add([]byte("b\na\n"), uint8(0), uint16(0))
	f.Add([]byte("10\n9\n-0\n0\nx\n"), uint8(3), uint16(2))
	f.Add([]byte("abcdefgh\x00\nabcdefgh\nABCDEFGH"), uint8(7), uint16(1))
	f.Add([]byte("x:2:b\nx:10:a\n"), uint8(10), uint16(5))
	f.Add([]byte("      1 b\n      2 a\n      1 a\n12345678901234 a\n12345678901235 a\n"), uint8(3), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, limit uint16) {
		if msg := checkSortCase(sortCases[int(mode)%len(sortCases)], string(data), []int{int(limit)}); msg != "" {
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

func runSortDiscard(tb testing.TB, text []byte) { runSortArgs(tb, text, nil, 0) }

// runSortArgs runs sort with args at a limit over text, discarding the
// output.
func runSortArgs(tb testing.TB, text []byte, args []string, limit int) {
	ctx := &Context{Args: args, Stdin: bytes.NewReader(text), Stdout: io.Discard, Stderr: io.Discard, Limit: limit}
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

// sortWorkloadText is the batch-sort workload's text as its sort steps
// see it: Zipf(1.1) draws from a 5,000-word lower-case vocabulary, as
// lines of 3-7 words (sort.txt after tr A-Z a-z) or, with perLine 1, as
// the one-word lines of the word-frequency one-liner's word stream.
func sortWorkloadText(lines, perLine int) []byte {
	rng := rand.New(rand.NewSource(20210426))
	vocab := make([][]byte, 5000)
	for i := range vocab {
		vocab[i] = make([]byte, 3+i*3%7)
		for j := range vocab[i] {
			vocab[i][j] = 'a' + byte(rng.Intn(26))
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(vocab)-1))
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		n := perLine
		if n == 0 {
			n = 3 + rng.Intn(5)
		}
		for w := 0; w < n; w++ {
			if w > 0 {
				buf.WriteByte(' ')
			}
			buf.Write(vocab[zipf.Uint64()])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// uniqCountText is the sort input of serve-mixed's file leg, `sort |
// uniq -c` over the first words of the batch-sort text's lines: one line
// per distinct word in word order, a Zipf count padded to seven columns
// in front, most counts equal.
func uniqCountText(lines int) []byte {
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(sortWorkloadText(lines, 0)), "\n"), "\n") {
		counts[strings.Fields(line)[0]]++
	}
	var buf bytes.Buffer
	for _, w := range slices.Sorted(maps.Keys(counts)) {
		fmt.Fprintf(&buf, "%7d %s\n", counts[w], w)
	}
	return buf.Bytes()
}

// BenchmarkSortKernel is the sort command without the process around
// it: 150k hex-word lines, the batch-sort workload's 150k sort.txt lines,
// its 166k-word word-frequency stream, and serve-mixed's uniq -c counts
// sorted by sort -rn, in full and as read by head -n 5.
func BenchmarkSortKernel(b *testing.B) {
	counts := uniqCountText(2000)
	for _, in := range []struct {
		name  string
		text  []byte
		args  []string
		limit int
	}{
		{"hex", sortBenchText(150_000), nil, 0},
		{"sort.txt", sortWorkloadText(150_000, 0), nil, 0},
		{"wf-words", sortWorkloadText(166_000, 1), nil, 0},
		{"uniq-c-rn", counts, []string{"-rn"}, 0},
		{"uniq-c-rn-first5", counts, []string{"-rn"}, 5},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.text)))
			for i := 0; i < b.N; i++ {
				runSortArgs(b, in.text, in.args, in.limit)
			}
		})
	}
}
