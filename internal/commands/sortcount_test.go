package commands

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// countOrders are total orders the count stage takes, one per shape of
// lineOrder: bytewise, reversed, numeric, folded, dictionary, blank
// skipping, keyed with and without a separator, several keys, and -s
// without a key (which orders whole lines all the same).
var countOrders = [][]string{
	nil, {"-r"}, {"-n"}, {"-rn"}, {"-f"}, {"-d"}, {"-b"}, {"-k2"}, {"-k2n"},
	{"-t,", "-k2"}, {"-k2,2", "-k1r"}, {"-fr"}, {"-s"}, {"-n", "-k1,1"}, {"--parallel=3"},
}

// memFS serves named strings as files: the map outputs a count stage's
// aggregate reads.
type memFS map[string]string

func (fs memFS) Open(name string) (io.ReadCloser, error) {
	s, ok := fs[name]
	if !ok {
		return nil, fmt.Errorf("open %s: no such file", name)
	}
	return io.NopCloser(strings.NewReader(s)), nil
}
func (memFS) Create(string) (io.WriteCloser, error) { return nil, fmt.Errorf("read-only") }
func (memFS) Append(string) (io.WriteCloser, error) { return nil, fmt.Errorf("read-only") }

func runFunc(f Func, args []string, stdin string, fs FS) (string, error) {
	return runLimit(f, args, stdin, fs, 0)
}

// runLimit runs f as a plan runs a node whose consumer reads only its
// first limit lines, or all of them for 0.
func runLimit(f Func, args []string, stdin string, fs FS, limit int) (string, error) {
	var out, errb bytes.Buffer
	err := f(&Context{Name: "count", Args: args, Stdin: strings.NewReader(stdin), Stdout: &out, Stderr: &errb, FS: fs, Limit: limit})
	return out.String(), err
}

// checkSortCount holds the count stage to `sort FLAGS | uniq -c` over
// text: the map alone, and the aggregate over the maps of text cut at
// the line indexes in cuts. It returns what differs, or "".
func checkSortCount(flags []string, text string, cuts []int) string {
	sorted, err := runFunc(sortCmd, flags, text, nil)
	if err != nil {
		return fmt.Sprintf("sort %v: %v", flags, err)
	}
	want, _ := runFunc(uniq, []string{"-c"}, sorted, nil)
	if got, err := runFunc(SortCount, flags, text, nil); err != nil || got != want {
		return fmt.Sprintf("map %v over %q: %v\n got %q\nwant %q", flags, text, err, got, want)
	}
	lines := strings.SplitAfter(text, "\n")
	fs, args, from := memFS{}, append([]string(nil), flags...), 0
	for i, cut := range append(cuts, len(lines)) {
		cut = min(max(cut, from), len(lines))
		name := fmt.Sprintf("m%d", i)
		var err error
		if fs[name], err = runFunc(SortCount, flags, strings.Join(lines[from:cut], ""), nil); err != nil {
			return fmt.Sprintf("map %v: %v", flags, err)
		}
		args, from = append(args, name), cut
	}
	if got, err := runFunc(SortCountMerge, args, "", fs); err != nil || got != want {
		return fmt.Sprintf("aggregate %v of %d maps over %q (cuts %v): %v\n got %q\nwant %q", flags, len(cuts)+1, text, cuts, err, got, want)
	}
	return ""
}

// countText is n lines drawn from a vocabulary of size words that share
// prefixes, case, numbers, separators and high bytes; some lines are
// blank and some longer than a word.
func countText(rng *rand.Rand, n, words int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		w := rng.Intn(words)
		switch w % 9 {
		case 0:
			fmt.Fprintf(&sb, "w%d x,%d\n", w, w%7)
		case 1:
			fmt.Fprintf(&sb, "W%d\n", w)
		case 2:
			fmt.Fprintf(&sb, " %d\n", w%13)
		case 3:
			fmt.Fprintf(&sb, "0%d\n", w%13)
		case 4:
			fmt.Fprintf(&sb, "\xffz%d é\n", w)
		case 5:
			sb.WriteString("\n")
		case 6:
			fmt.Fprintf(&sb, "a long line of several words %d,%d tail\n", w, w*w)
		default:
			fmt.Fprintf(&sb, "w%d\n", w)
		}
	}
	return sb.String()
}

// uniqueText is three table windows of lines, seven in eight distinct:
// the count table closes on it.
func uniqueText(rng *rand.Rand) string {
	var sb strings.Builder
	for i := 0; i < 3*countTableWindow; i++ {
		if i%8 == 0 {
			sb.WriteString(countText(rng, 1, 40))
		} else {
			fmt.Fprintf(&sb, "w%d x,%d\n", i, rng.Intn(7))
		}
	}
	return sb.String()
}

// TestSortCountMatchesSortUniq: the count stage's map, and its aggregate
// over maps of cut input, print `sort FLAGS | uniq -c` for every shape
// of total order: on small vocabularies, with an unterminated last line,
// empty, and on a unique-heavy input whose table closes, so that later
// lines are count-1 records the one sort coalesces with the table's; a
// duplicate-heavy input whose first lines are mostly new keeps it open.
func TestSortCountMatchesSortUniq(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	dup := countText(rng, 3000, 40)
	unique := uniqueText(rng)
	var tb countTable
	if tb.read(strings.NewReader(unique)); !tb.closed || tb.tableEnd == len(tb.arena) {
		t.Fatalf("the unique-heavy input leaves the table open (%d entries of %d lines)", len(tb.entries), tb.lines)
	}
	// Words drawn evenly from a vocabulary half a window large are new
	// at first and then seldom: the table must stay open.
	var open countTable
	if open.read(bytes.NewReader(shareText(8*countTableWindow, countTableWindow/2))); open.closed {
		t.Fatalf("a 6%%-distinct input closes the table (%d entries of %d lines)", len(open.entries), open.lines)
	}
	for _, flags := range countOrders {
		for _, text := range []string{dup, strings.TrimSuffix(dup, "\n"), "", "\n", "x", unique} {
			cuts := []int{rng.Intn(1000), 1000 + rng.Intn(2000), 3000 + rng.Intn(50000)}
			if msg := checkSortCount(flags, text, cuts); msg != "" {
				t.Fatal(msg[:min(len(msg), 2000)])
			}
		}
	}
}

// TestSortCountMergeSums: the aggregate sums only equal lines, in any
// number of inputs, and prints a count of 10,000,000 or more as uniq -c
// does — unpadded — and reads it back as a count.
func TestSortCountMergeSums(t *testing.T) {
	fs := memFS{
		"a": "12345678 apple\n      5 banana\n      1 cherry pie\n",
		"b": "9999999 apple\n      2  banana\n",
		"c": "      3 cherry\n      4 cherry pie\n",
	}
	want := "22345677 apple\n      2  banana\n      5 banana\n      3 cherry\n      5 cherry pie\n"
	if got, err := runFunc(SortCountMerge, []string{"a", "b", "c"}, "", fs); err != nil || got != want {
		t.Errorf("merge: %v\n got %q\nwant %q", err, got, want)
	}
	merged, _ := runFunc(SortCountMerge, []string{"a", "b"}, "", fs)
	fs["ab"] = merged
	if got, err := runFunc(SortCountMerge, []string{"ab", "c"}, "", fs); err != nil || got != want {
		t.Errorf("a merge of a merge: %v\n got %q\nwant %q", err, got, want)
	}
	fs["bad"] = "apple\n"
	if _, err := runFunc(SortCountMerge, []string{"bad"}, "", fs); err == nil {
		t.Error("a line with no count merged")
	}
}

// TestSortCountableRefuses: the count stage takes exactly the sort argv
// whose order is total and that prints its input sorted — what sort's
// own parser refuses, it refuses too.
func TestSortCountableRefuses(t *testing.T) {
	for _, flags := range countOrders {
		if !SortCountable(flags) {
			t.Errorf("sort %v refused", flags)
		}
	}
	for _, flags := range [][]string{
		{"-s", "-k1"}, {"-u"}, {"-nu"}, {"-m"}, {"-c"}, {"-o", "out"}, {"-oout"},
		{"-R"}, {"-k0"}, {"-t"}, {"-f", "-s"}, {"-k2", "-s"}, {"--parallel=0"},
	} {
		if SortCountable(flags) {
			t.Errorf("sort %v taken", flags)
		}
		if _, err := runFunc(SortCount, flags, "b\na\n", nil); err == nil {
			t.Errorf("the count stage ran sort %v", flags)
		}
	}
}

// FuzzSortCount: from fuzzer-chosen lines, total order and cut into one
// to four chunks, the aggregate over the maps and the single map each
// print `sort FLAGS | uniq -c` of the whole input.
func FuzzSortCount(f *testing.F) {
	f.Add("b\na\nb\n", uint8(0), uint16(1), uint16(2), uint16(3))
	f.Add("10\n9\n09\n-0\n0\nx", uint8(2), uint16(2), uint16(0), uint16(5))
	f.Add("a b\nA b\na  b\n\n\xff\n", uint8(4), uint16(1), uint16(3), uint16(3))
	f.Add("x,2\ny,1\nx,2\n", uint8(9), uint16(0), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, text string, mode uint8, c1, c2, c3 uint16) {
		cuts := []int{int(c1), int(c2), int(c3)}[:mode>>6]
		if msg := checkSortCount(countOrders[int(mode)%len(countOrders)], text, cuts); msg != "" {
			t.Fatal(msg)
		}
	})
}

// failAfter fails every write once n bytes have been written.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, fmt.Errorf("consumer gone")
	}
	return len(p), nil
}

// TestSortCountStopsWhenOutputFails: when the reader of the map's output
// goes away mid-print, across several batches, the map returns the
// write error instead of hanging on its printer.
func TestSortCountStopsWhenOutputFails(t *testing.T) {
	text := countText(rand.New(rand.NewSource(47)), 40000, 40000)
	err := SortCount(&Context{Name: "count", Stdin: strings.NewReader(text), Stdout: &failAfter{n: 3 * BlockSize}, Stderr: io.Discard})
	if err == nil {
		t.Fatal("the map printed into a failed writer without an error")
	}
}

// shareText is n word lines drawn uniformly from distinct words, so
// that the share of distinct lines sets how much the count table saves.
func shareText(n, distinct int) []byte {
	rng := rand.New(rand.NewSource(20210426))
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "w%x\n", uint64(rng.Intn(distinct))*2654435761%(1<<40))
	}
	return buf.Bytes()
}

// BenchmarkSortCount is the count stage's map at width 1 over the
// batch-sort workload's word-frequency stream (3% distinct), its sort.txt
// lines (98% distinct), and 400k words at distinct shares from 3% to 89%,
// either side of the share at which the table closes.
func BenchmarkSortCount(b *testing.B) {
	const n = 400_000
	for _, in := range []struct {
		name string
		text []byte
	}{
		{"wf-words", sortWorkloadText(166_000, 1)},
		{"sort.txt", sortWorkloadText(150_000, 0)},
		{"distinct-3%", shareText(n, n/32)},
		{"distinct-12%", shareText(n, n/8)},
		{"distinct-25%", shareText(n, n/4)},
		{"distinct-43%", shareText(n, n/2)},
		{"distinct-89%", shareText(n, 4*n)},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.text)))
			for i := 0; i < b.N; i++ {
				ctx := &Context{Stdin: bytes.NewReader(in.text), Stdout: io.Discard, Stderr: io.Discard}
				if err := SortCount(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rankForms are the spellings of the rank sort the count-and-rank stage
// takes.
var rankForms = [][]string{{"-n"}, {"-rn"}, {"-nr"}, {"-r", "-n"}}

// checkCountRank holds the count-and-rank stage to the unfused
// `sort FLAGS | uniq -c` (SortCount) followed by `sort RANK`, and
// `head -n LIMIT` for a limit above 0, over text: the stage alone, and
// its aggregate, flat and through a partial aggregate, over the maps of
// text cut at the line indexes in cuts. It returns what differs, or "".
func checkCountRank(flags, rank []string, text string, cuts []int, limit int) string {
	counted, err := runFunc(SortCount, flags, text, nil)
	if err != nil {
		return fmt.Sprintf("sort %v | uniq -c: %v", flags, err)
	}
	want, err := runFunc(sortCmd, rank, counted, nil)
	if err != nil {
		return fmt.Sprintf("sort %v: %v", rank, err)
	}
	if lines := strings.SplitAfter(want, "\n"); limit > 0 && limit < len(lines) {
		want = strings.Join(lines[:limit], "")
	}
	if got, err := runLimit(CountRank, rank, text, nil, limit); err != nil || got != want {
		return fmt.Sprintf("stage %v limit %d over %q: %v\n got %q\nwant %q", rank, limit, text, err, got, want)
	}
	lines := strings.SplitAfter(text, "\n")
	if len(cuts) > 0 {
		// The table closes after the first cut's lines: the rest are
		// count-1 records, coalesced before they rank.
		var t countTable
		t.read(strings.NewReader(strings.Join(lines[:min(cuts[0], len(lines))], "")))
		t.closed = true
		t.read(strings.NewReader(strings.Join(lines[min(cuts[0], len(lines)):], "")))
		var out bytes.Buffer
		reverse, _ := SortRankable(rank)
		if err := t.printRanked(&Context{Stdout: &out, Limit: limit}, reverse); err != nil || out.String() != want {
			return fmt.Sprintf("stage %v limit %d over %q, its table closed after %d lines: %v\n got %q\nwant %q", rank, limit, text, cuts[0], err, out.String(), want)
		}
	}
	fs, names, from := memFS{}, []string(nil), 0
	for i, cut := range append(cuts, len(lines)) {
		cut = min(max(cut, from), len(lines))
		name := fmt.Sprintf("m%d", i)
		var err error
		if fs[name], err = runFunc(CountLines, nil, strings.Join(lines[from:cut], ""), nil); err != nil {
			return fmt.Sprintf("map: %v", err)
		}
		names, from = append(names, name), cut
	}
	flat, err := runLimit(CountRankMerge, append(slices.Clone(rank), names...), "", fs, limit)
	if err != nil || flat != want {
		return fmt.Sprintf("aggregate %v limit %d of %d maps over %q (cuts %v): %v\n got %q\nwant %q", rank, limit, len(names), text, cuts, err, flat, want)
	}
	if fs["p"], err = runFunc(CountRankMerge, append(slices.Clone(rank), names[:len(names)/2+1]...), "", fs); err != nil {
		return fmt.Sprintf("partial aggregate: %v", err)
	}
	tree, err := runLimit(CountRankMerge, append(append(slices.Clone(rank), "p"), names[len(names)/2+1:]...), "", fs, limit)
	if err != nil || tree != want {
		return fmt.Sprintf("aggregate %v limit %d over a partial aggregate over %q (cuts %v): %v\n got %q\nwant %q", rank, limit, text, cuts, err, tree, want)
	}
	return ""
}

// tiedText is every word of a vocabulary the same number of times, in
// shuffled order, and a few words more often: ranks are mostly ties.
func tiedText(rng *rand.Rand) string {
	var lines []string
	for w := 0; w < 600; w++ {
		for i := 0; i < 3+w%60/59; i++ {
			lines = append(lines, fmt.Sprintf("t%d %s\n", w%97, strings.Repeat("x", w%11)))
		}
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return strings.Join(lines, "")
}

// TestCountRankMatchesPipeline: the count-and-rank stage, its map and
// its aggregate print `sort | uniq -c | sort -n` (or -rn, in any
// spelling), under head -n K or not, for first sorts of several orders:
// on many equal counts, an unterminated last line, blank and long
// lines, nothing, and on a unique-heavy input whose table closes, so
// that the stage coalesces before it ranks.
func TestCountRankMatchesPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	dup := countText(rng, 3000, 40)
	texts := []string{dup, strings.TrimSuffix(dup, "\n"), tiedText(rng), "", "\n", "x", "b\n\na\n\n"}
	for _, rank := range rankForms {
		for _, flags := range [][]string{nil, {"-f"}, {"-rn"}, {"-t,", "-k2"}} {
			for _, text := range texts {
				for _, limit := range []int{0, 1, 5, 100} {
					cuts := []int{rng.Intn(1000), 1000 + rng.Intn(2000)}
					if msg := checkCountRank(flags, rank, text, cuts, limit); msg != "" {
						t.Fatal(msg[:min(len(msg), 2000)])
					}
				}
			}
		}
	}
	unique := uniqueText(rng)
	for _, rank := range rankForms[:2] {
		for _, limit := range []int{0, 5} {
			if msg := checkCountRank(nil, rank, unique, []int{40000, 70000}, limit); msg != "" {
				t.Fatal(msg[:min(len(msg), 2000)])
			}
		}
	}
}

// TestSortRankableRefuses: the count-and-rank stage takes exactly a
// numeric order of whole lines, reversed or not, in any spelling; every
// other sort argv keeps its own sort, and the stage refuses to run it.
func TestSortRankableRefuses(t *testing.T) {
	for _, c := range []struct {
		args    []string
		reverse bool
	}{
		{[]string{"-n"}, false}, {[]string{"-rn"}, true}, {[]string{"-nr"}, true},
		{[]string{"-r", "-n"}, true}, {[]string{"-n", "--parallel=2"}, false},
	} {
		if reverse, ok := SortRankable(c.args); !ok || reverse != c.reverse {
			t.Errorf("sort %v: SortRankable = %v, %v; want %v, true", c.args, reverse, ok, c.reverse)
		}
	}
	refused := [][]string{
		nil, {"-r"}, {"-rns"}, {"-rnu"}, {"-k1,1nr"}, {"-t", " ", "-rn"}, {"-t ", "-n"}, {"-fn"}, {"-bn"},
		{"-dn"}, {"-g"}, {"-rg"}, {"-mn"}, {"-cn"}, {"-o", "out", "-n"}, {"-rn", "-k1"},
	}
	for _, args := range append(refused, []string{"-rn", "f"}, []string{"-rn", "-"}) {
		if _, ok := SortRankable(args); ok {
			t.Errorf("sort %v taken", args)
		}
	}
	for _, args := range refused {
		if _, err := runFunc(CountRank, args, "b\na\n", nil); err == nil {
			t.Errorf("the count-and-rank stage ran sort %v", args)
		}
		if _, err := runFunc(CountRankMerge, args, "", memFS{}); err == nil {
			t.Errorf("the count-and-rank aggregate ran sort %v", args)
		}
	}
	if _, err := runFunc(CountRankMerge, []string{"-rn"}, "apple\n", nil); err == nil {
		t.Error("the aggregate summed a line with no count")
	}
}

// TestCountRankStopsWhenOutputFails: when the reader of the stage's
// output goes away mid-print, the stage returns the write error.
func TestCountRankStopsWhenOutputFails(t *testing.T) {
	text := countText(rand.New(rand.NewSource(55)), 40000, 40000)
	err := CountRank(&Context{Name: "rank", Args: []string{"-rn"}, Stdin: strings.NewReader(text), Stdout: &failAfter{n: 3 * BlockSize}, Stderr: io.Discard})
	if err == nil {
		t.Fatal("the stage printed into a failed writer without an error")
	}
}

// FuzzCountRank: from fuzzer-chosen lines, a first sort's total order,
// a rank spelling, a limit and a cut into one to four chunks, the stage,
// its flat aggregate and an aggregate over a partial one each print
// `sort FLAGS | uniq -c | sort RANK | head -n LIMIT`.
func FuzzCountRank(f *testing.F) {
	f.Add("b\na\nb\n", uint8(0), uint8(0), uint16(1), uint16(2), uint16(3))
	f.Add("10\n9\n09\n\n\n-0\n0\nx", uint8(1|2<<2|1<<6), uint8(2), uint16(2), uint16(0), uint16(5))
	f.Add("a b\nA b\na  b\n\n\xff\na b\n\xff\n", uint8(3|4<<2|2<<6), uint8(1), uint16(1), uint16(3), uint16(3))
	f.Add("x\ny\nx\ny\nz\n", uint8(2|3<<6), uint8(5), uint16(0), uint16(1), uint16(4))
	f.Fuzz(func(t *testing.T, text string, mode, limit uint8, c1, c2, c3 uint16) {
		cuts := []int{int(c1), int(c2), int(c3)}[:mode>>6]
		flags := countOrders[int(mode>>2&15)%len(countOrders)]
		if msg := checkCountRank(flags, rankForms[mode&3], text, cuts, int(limit)); msg != "" {
			t.Fatal(msg)
		}
	})
}
