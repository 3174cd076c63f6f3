package commands

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"repro/internal/hostcheck"
)

// runCommandOn executes a registered command over input and returns its
// output and error.
func runCommandOn(t *testing.T, name string, args []string, input string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := NewStd().Run(name, &Context{
		Args:   args,
		Stdin:  strings.NewReader(input),
		Stdout: &out,
		Stderr: &bytes.Buffer{},
	})
	return out.String(), err
}

// runKernelOn feeds input to a kernel in pseudo-random chunk sizes —
// kernels must be chunking-independent — and returns output and status.
func runKernelOn(t *testing.T, name string, args []string, input string, rng *rand.Rand) (string, error) {
	t.Helper()
	k, ok := NewKernel(name, args)
	if !ok {
		t.Fatalf("NewKernel(%s %v) not capable", name, args)
	}
	var out []byte
	in := []byte(input)
	for len(in) > 0 {
		n := 1 + rng.Intn(len(in))
		out = k.Apply(out, in[:n])
		in = in[n:]
	}
	out = k.Finish(out)
	return string(out), k.Status()
}

var kernelCases = []struct {
	name string
	args []string
}{
	{"cat", nil},
	{"cat", []string{"-"}},
	{"tr", []string{"a-z", "A-Z"}},
	{"tr", []string{"-d", "aeiou"}},
	{"tr", []string{"-s", " "}},
	{"tr", []string{"\\n", " "}},
	{"tr", []string{"-d", "\\n"}},
	{"tr", []string{"-cs", "A-Za-z", "\\n"}},
	{"tr", []string{"A-Z", "a-z"}},
	{"tr", []string{"[:upper:]", "[:lower:]"}},
	{"tr", []string{"0-9", "a-j"}},
	{"grep", []string{"th"}},
	{"grep", []string{"-v", "th"}},
	{"grep", []string{"water"}},
	{"grep", []string{"-v", "water"}},
	{"grep", []string{"-F", "o w"}},
	{"grep", []string{"-i", "THE"}},
	{"grep", []string{"-i", "-v", "WaTer"}},
	{"grep", []string{"-i", "\xc3\xa9"}}, // é: no fold outside ASCII, as under LC_ALL=C
	{"grep", []string{"-x", "the end"}},
	{"grep", []string{"-w", "the"}},
	{"grep", []string{"-E", "t.e|o+"}},
	// Literal needles of 7, 8, 9 and 16 bytes around the word step ("th"
	// and "water" above are 2 and 5); each has hits in kernelInputs.
	{"grep", []string{"e woods"}},
	{"grep", []string{"the wood"}},
	{"grep", []string{"-v", "the woods"}},
	{"grep", []string{"woods are lovely"}},
	{"sed", []string{"s/woods are lovely/W/"}},
	{"cut", []string{"-d", " ", "-f", "1"}},
	{"cut", []string{"-d", " ", "-f", "2-3,5-"}},
	{"cut", []string{"-d", " ", "-f", "1", "-s"}},
	{"cut", []string{"-c", "1-4"}},
	{"cut", []string{"-c", "2,4-"}},
	// Lists out of order, overlapping or repeated: each field or
	// character prints once, in input order.
	{"cut", []string{"-d", " ", "-f3,1"}},
	{"cut", []string{"-d", " ", "-f1-3,2"}},
	{"cut", []string{"-d", " ", "-f2,2"}},
	{"cut", []string{"-d", " ", "-f4-,-2"}},
	{"cut", []string{"-d", " ", "-f3-,2"}},
	{"cut", []string{"-c3,1"}},
	{"cut", []string{"-c", "5-,2-3,1"}},
	{"sed", []string{"s/the/THE/"}},
	{"sed", []string{"s/the/<&>/"}},
	{"sed", []string{"s/water/WATER/"}},
	{"sed", []string{"s/water/W/g"}},
	{"sed", []string{"s/o/0/g"}},
	{"sed", []string{"s/t\\(h\\)e/\\1&/g"}},
	{"sed", []string{"-e", "s/a/A/", "-e", "y/e/E/"}},
	{"sed", []string{"/the/s/end/END/"}},
	{"rev", nil},
}

// positionalCases are sed invocations that read a line's position in the
// whole input: no kernel runs them (chunking is not invariant for them by
// design), but the command must still print what the host's sed prints.
var positionalCases = []struct {
	name string
	args []string
}{
	{"sed", []string{"2,3d"}},
	{"sed", []string{"-n", "2,$p"}},
	{"sed", []string{"2,4s/the/THE/"}},
	{"sed", []string{"3,$y/abc/ABC/"}},
	{"sed", []string{"3,1d"}}, // an end before the start: the start line alone
	{"sed", []string{"$d"}},
	{"sed", []string{"-n", "$p"}},
	{"sed", []string{"-e", "1,2d", "-e", "$s/$/ (end)/"}},
	{"sed", []string{"2q"}},
}

var kernelInputs = []string{
	"",
	"\n",
	"the quick brown fox\n",
	"no trailing newline",
	"the end\n",
	"a b c d e f\nthe lazy dog\n\nthe end\n",
	"aa  bb\n\n\n  the   end",
	strings.Repeat("the woods are lovely dark and deep\n", 40),
	strings.Repeat("x", 3*BlockSize) + "\nshort\n", // line longer than a block
	// A hit in the first and in the last line of a block, none between.
	"the water\n" + strings.Repeat("a b c\n", 50) + "cold water on the end\n",
	// Adjacent hits on one line, and a hit in an unterminated last line.
	"waterwater thethe oo\nnothing\nwater, the last drop",
	"caf\xc3\xa9 CAF\xc3\x89 Caf\xc3\xa9\nCAF\xc3\x89\nthe WATER, the Water\n",
	// High bytes around A-Z and a-z, in every lane of an 8-byte word.
	"\x80\xc1\xdaAZ[@az`{\xff \xe9cole AZ\xc1\xda\x9a the WATER water\n@[`{\x7f\x01\xff\xe1\xfa",
	// A block whose last line holds a hit starting in its last 8 bytes,
	// where the literal search has too few bytes left for its word loop.
	strings.Repeat("z", BlockSize-11) + " the water\n",
	// Candidate-dense: the needles' first and last bytes everywhere, so
	// most word steps flag a start that the compare throws out.
	strings.Repeat("wrwr wwrr wxter wateR tttt hhhh tht wy woods are lovelY\n", 12) +
		"twthrw the woods are lovely water th\nwaterwater\n",
	// 0x01 and 0x80-0xff next to hits: a byte one above a match borrows
	// in the has-zero mask, a high byte must never count as a match.
	"\x01water\x01\x80water\xff\x01\x01th\x01\xfe\n\xffthe\x80woods are lovely\x01\n\x01\x01\x01\x01\x01\x01\x01\x01th\x80\x80\x80\n",
}

// randomTexts returns n random inputs: printable-ish bytes with newline
// sprinkles, the last line unterminated more often than not.
func randomTexts(rng *rand.Rand, n int) []string {
	var texts []string
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for j := rng.Intn(4000); j > 0; j-- {
			c := byte(' ' + rng.Intn(95))
			if rng.Intn(12) == 0 {
				c = '\n'
			}
			sb.WriteByte(c)
		}
		texts = append(texts, sb.String())
	}
	return texts
}

// checkChunkingInvariance is the kernel soundness property, with an
// oracle that is not the kernel's own command (the command is the
// kernel): one Apply of the whole input followed by Finish must equal the
// same input pushed through in pieces, for output and status alike.
func checkChunkingInvariance(t *testing.T, name string, args []string, input string, rng *rand.Rand) {
	t.Helper()
	whole, ok := NewKernel(name, args)
	if !ok {
		t.Fatalf("NewKernel(%s %v) not capable", name, args)
	}
	want := string(whole.Finish(whole.Apply(nil, []byte(input))))
	wantStatus := ExitCode(whole.Status())
	for round := 0; round < 4; round++ {
		got, err := runKernelOn(t, name, args, input, rng)
		if got != want {
			t.Fatalf("%s %v on %q: chunked run diverged\nwhole:   %q\nchunked: %q",
				name, args, clipText(input), clipText(want), clipText(got))
		}
		if ExitCode(err) != wantStatus {
			t.Fatalf("%s %v on %q: exit %d whole vs %d chunked",
				name, args, clipText(input), wantStatus, ExitCode(err))
		}
	}
}

func clipText(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// TestKernelChunkingInvariance runs the property over every kernel case
// and input, among them a line longer than a block and an unterminated
// last line. That the bytes are also the right ones is for
// TestKernelsAgainstHostCoreutils and the goldens of commands_test.go,
// which reach the kernels through Registry.Run.
func TestKernelChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := append(append([]string{}, kernelInputs...), randomTexts(rng, 20)...)
	for _, tc := range kernelCases {
		for _, input := range inputs {
			checkChunkingInvariance(t, tc.name, tc.args, input, rng)
		}
	}
}

// FuzzKernelChunking is the same property with the fuzzer choosing the
// kernel, the input and the chunking.
func FuzzKernelChunking(f *testing.F) {
	for i, input := range kernelInputs {
		if len(input) < 4096 { // the long-line input would dominate the corpus
			f.Add(uint8(i*7), []byte(input), int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, input []byte, seed int64) {
		tc := kernelCases[int(which)%len(kernelCases)]
		checkChunkingInvariance(t, tc.name, tc.args, string(input), rand.New(rand.NewSource(seed)))
	})
}

// TestKernelsAgainstHostCoreutils is the differential half: on
// newline-terminated input, where this substrate and GNU agree, every
// kernel case — run as its command, through the kernel driver — every
// positional sed and every sort invocation of the sort kernel's own
// differential test but -m and --parallel (plus -c) must print what the
// host's tool prints under LC_ALL=C, and exit alike. For sort that pins
// the oracle of TestSortKernelDifferential to GNU's tie rules.
func TestKernelsAgainstHostCoreutils(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var inputs, sortInputs []string
	terminated := func(input string) string {
		if input != "" && !strings.HasSuffix(input, "\n") {
			input += "\n"
		}
		return input
	}
	for _, input := range append(append([]string{}, kernelInputs...), randomTexts(rng, 8)...) {
		inputs = append(inputs, terminated(input))
	}
	for i := 0; i < 40; i++ {
		sortInputs = append(sortInputs, terminated(genSortText(rng, 60)))
	}
	sortArgs := [][]string{{"-c"}, {"-cu"}, {"-c", "-n"}, {"-cnu"}, {"-cs", "-k2,2"}}
	for _, c := range sortCases {
		if !c.cfg.merge && c.cfg.parallel == 0 {
			sortArgs = append(sortArgs, c.args)
		}
	}
	hostCases := slices.Concat(kernelCases, positionalCases)
	for _, args := range sortArgs {
		hostCases = append(hostCases, struct {
			name string
			args []string
		}{"sort", args})
	}
	for _, tool := range []string{"tr", "cut", "sed", "grep", "rev", "sort"} {
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			toolInputs := inputs
			if tool == "sort" {
				toolInputs = slices.Concat(inputs, sortInputs)
			}
			for _, tc := range hostCases {
				if tc.name != tool {
					continue
				}
				for _, input := range toolInputs {
					if tool == "rev" && strings.ContainsFunc(input, func(r rune) bool { return r >= 0x80 }) {
						continue // util-linux rev decodes characters and refuses high bytes under LC_ALL=C
					}
					host := hostcheck.Run(t, "sh", "", tool+" "+hostcheck.Quote(tc.args...), input)
					got, err := runCommandOn(t, tc.name, tc.args, input)
					if got != host.Stdout || ExitCode(err) != host.Code {
						t.Fatalf("%s %v on %q: exit %d, host %d; %s",
							tool, tc.args, clipText(input), ExitCode(err), host.Code, hostcheck.Diff(got, host.Stdout))
					}
				}
			}
		})
	}
}

// tokenSource is a chunk source that interleaves empty framing tokens
// with its data chunks, each handed out as an owned pool block.
type tokenSource struct{ chunks [][]byte }

func (s *tokenSource) Read([]byte) (int, error) { panic("chunk sources are read by ReadChunk") }

func (s *tokenSource) ReadChunk() ([]byte, error) {
	if len(s.chunks) == 0 {
		return nil, io.EOF
	}
	b := append(GetBlock(), s.chunks[0]...)
	s.chunks = s.chunks[1:]
	return b, nil
}

// TestNextBlock pins the block reader's two promises: a chunk source's
// empty framing tokens are dropped, and a plain reader is read once per
// block, not until the block is full.
func TestNextBlock(t *testing.T) {
	drain := func(r io.Reader) (blocks []string) {
		for {
			b, err := NextBlock(r)
			if err == io.EOF {
				return blocks
			}
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, string(b))
			PutBlock(b)
		}
	}
	got := drain(&tokenSource{chunks: [][]byte{{}, []byte("ab\n"), {}, {}, []byte("c")}})
	if want := []string{"ab\n", "c"}; !slices.Equal(got, want) {
		t.Errorf("chunk source: blocks %q, want %q", got, want)
	}
	got = drain(iotest.OneByteReader(strings.NewReader("xyz")))
	if want := []string{"x", "y", "z"}; !slices.Equal(got, want) {
		t.Errorf("plain reader: blocks %q, want %q (one Read per block)", got, want)
	}
}

// TestKernelDriverReaderBoundaries pins what runKernel guarantees where
// one operand ends and the next begins: the kernel finishes, so an
// unterminated last line ends there instead of gluing onto the next
// file's first line, and "-" takes standard input in its turn.
func TestKernelDriverReaderBoundaries(t *testing.T) {
	dir := t.TempDir()
	must(t, os.WriteFile(filepath.Join(dir, "f1"), []byte("a b\nc d"), 0o644))
	must(t, os.WriteFile(filepath.Join(dir, "f2"), []byte("e f\n"), 0o644))
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"cut", []string{"-d", " ", "-f1", "f1", "-", "f2"}, "a\nc\nx\ne\n"},
		{"rev", []string{"f1", "-", "f2"}, "b a\nd c\ny x\nf e\n"},
		{"sed", []string{"s/ /_/", "f1", "-", "f2"}, "a_b\nc_d\nx_y\ne_f\n"},
		{"grep", []string{"-h", "-v", "a", "f1", "-", "f2"}, "c d\nx y\ne f\n"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ctx := &Context{Args: c.args, Stdin: strings.NewReader("x y"), Stdout: &out, FS: OSFS{Dir: dir}}
		if err := Std().Run(c.name, ctx); err != nil {
			t.Errorf("%s %v: %v", c.name, c.args, err)
		}
		if out.String() != c.want {
			t.Errorf("%s %v = %q, want %q", c.name, c.args, out.String(), c.want)
		}
	}
}

// TestKernelFinishResets checks the framed-mode contract: after Finish,
// a kernel processes the next stream as a fresh invocation, so running
// streams back to back equals running the command on each chunk
// separately (the unfused framed protocol).
func TestKernelFinishResets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	chunks := []string{
		"the quick\nbrown fox\n",
		"",
		"jumps over",
		"aa  bb\nthe end\n",
	}
	for _, tc := range kernelCases {
		k, ok := NewKernel(tc.name, tc.args)
		if !ok {
			t.Fatalf("NewKernel(%s %v) not capable", tc.name, tc.args)
		}
		for i, chunk := range chunks {
			want, _ := runCommandOn(t, tc.name, tc.args, chunk)
			var out []byte
			in := []byte(chunk)
			for len(in) > 0 {
				n := 1 + rng.Intn(len(in))
				out = k.Apply(out, in[:n])
				in = in[n:]
			}
			out = k.Finish(out)
			if string(out) != want {
				t.Fatalf("%s %v stream#%d: per-stream output diverged\ncommand: %q\nkernel:  %q",
					tc.name, tc.args, i, want, out)
			}
		}
	}
}

// TestKernelCapability pins which invocations fuse and which fall back.
func TestKernelCapability(t *testing.T) {
	capable := [][2]interface{}{
		{"cat", []string{}},
		{"tr", []string{"a", "b"}},
		{"grep", []string{"-v", "-h", "x"}},
		{"cut", []string{"-f1,2", "-d:"}},
		{"sed", []string{"s/a/b/g"}},
		{"rev", []string{}},
	}
	for _, c := range capable {
		if !Std().KernelCapable(c[0].(string), c[1].([]string)) {
			t.Errorf("expected %s %v to be kernel-capable", c[0], c[1])
		}
	}
	incapable := [][2]interface{}{
		{"cat", []string{"-n"}},       // line numbering is positional
		{"grep", []string{"-c", "x"}}, // counting output
		{"grep", []string{"-n", "x"}}, // line numbers
		{"grep", []string{"-m", "3", "x"}},
		{"grep", []string{"x", "file"}}, // file operand
		{"sed", []string{"-n", "s/a/b/p"}},
		{"sed", []string{"3d"}},          // line address
		{"sed", []string{"s/a/b/", "f"}}, // file operand
		{"sort", []string{}},             // not stateless
		{"head", []string{"-n", "1"}},
		{"wc", []string{"-l"}},
	}
	for _, c := range incapable {
		if Std().KernelCapable(c[0].(string), c[1].([]string)) {
			t.Errorf("expected %s %v to NOT be kernel-capable", c[0], c[1])
		}
	}
}

// TestGrepFixedFastPath pins the satellite: metacharacter-free patterns
// take the fixed-string path and still match like the regexp engine.
func TestGrepFixedFastPath(t *testing.T) {
	for _, pat := range []string{"needle", "two words", "a"} {
		if !plainPattern(pat) {
			t.Fatalf("pattern %q should be plain", pat)
		}
	}
	for _, pat := range []string{"a.b", "x+", "^a", "a$", "[ab]", "a|b", "a\\b", "{2}", "(x)"} {
		if plainPattern(pat) {
			t.Fatalf("pattern %q should not be plain", pat)
		}
	}
	input := "haystack with a needle inside\nnothing here\nneedle\n"
	out, err := runCommandOn(t, "grep", []string{"needle"}, input)
	if err != nil {
		t.Fatal(err)
	}
	want := "haystack with a needle inside\nneedle\n"
	if out != want {
		t.Fatalf("fast-path grep output %q, want %q", out, want)
	}
	// -x through the fixed path.
	out, _ = runCommandOn(t, "grep", []string{"-x", "needle"}, input)
	if out != "needle\n" {
		t.Fatalf("grep -x fast path output %q", out)
	}
	// Metacharacter patterns still hit the regexp engine.
	out, _ = runCommandOn(t, "grep", []string{"ne+dle"}, input)
	if out != want {
		t.Fatalf("regexp grep output %q, want %q", out, want)
	}
}

// perLineReference folds a block-scan form's per-line body over the
// lines of input, one at a time: what its kernel must print, computed
// without the block scanner; status is grep's exit code.
func perLineReference(t *testing.T, name string, args []string, input string) (out []byte, status int) {
	t.Helper()
	lines := strings.Split(input, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	switch name {
	case "grep":
		g, err := parseGrepProgram(args)
		if err != nil {
			t.Fatal(err)
		}
		status = 1
		for _, line := range lines {
			var sel bool
			if out, sel = g.emit(out, []byte(line), "", 0); sel {
				status = 0
			}
		}
	case "sed":
		p, err := parseSedProgram(args)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range lines {
			out, _ = p.step(out, []byte(line), 0, false)
		}
	}
	return out, status
}

// TestLiteralKernelMatchesPerLineBody is the block scanner's own
// property: for the forms that search blocks for a literal, the kernel
// prints what folding the per-line body over the lines prints — whole, cut
// in two at every byte (so a hit, a line end and the needle itself each
// straddle a boundary), and in random pieces.
func TestLiteralKernelMatchesPerLineBody(t *testing.T) {
	forms := []struct {
		name string
		args []string
	}{
		{"grep", []string{"water"}},
		{"grep", []string{"-v", "water"}},
		{"grep", []string{"th"}},
		{"grep", []string{"-F", "o w"}},
		{"grep", []string{"-v", "-F", "."}},
		// Through the ASCII case fold: needles of 1, 2, 5 and 16 bytes.
		{"grep", []string{"-i", "water"}},
		{"grep", []string{"-i", "WaTeR"}},
		{"grep", []string{"-i", "-v", "water"}},
		{"grep", []string{"-i", "th"}},
		{"grep", []string{"-i", "o"}},
		{"grep", []string{"-i", "-F", "woods are lovely"}},
		// Plain replacements, copied in at the search's offset: without
		// g, with g, and with adjacent and overlapping needles.
		{"sed", []string{"s/water/WATER/"}},
		{"sed", []string{"s/water/W/g"}},
		{"sed", []string{"s/aa/b/g"}},
		{"sed", []string{"s/the//"}},
		{"sed", []string{"s/the/<&>/"}},
		{"sed", []string{"s/o/0/g"}},
		{"sed", []string{"s/oo/o/g"}},
		{"sed", []string{"s/a b/&\\n&/"}},
	}
	rng := rand.New(rand.NewSource(17))
	inputs := append(append([]string{}, kernelInputs...), randomTexts(rng, 10)...)
	inputs = append(inputs, "o wo w. the water\nwaterwater\n\nooo the o w", "water", "\nwater\n\n",
		"aaaaa aa a\nWATER WaTeR\n\xc3\x89 \xc3\xa9 WOODS ARE LOVELY wAter\n")
	for _, f := range forms {
		k, ok := NewKernel(f.name, f.args)
		if !ok {
			t.Fatalf("NewKernel(%s %v) not capable", f.name, f.args)
		}
		if _, ok := k.(*literalKernel); !ok {
			t.Fatalf("%s %v runs %T, want the literal block scanner", f.name, f.args, k)
		}
		for _, input := range inputs {
			want, wantStatus := perLineReference(t, f.name, f.args, input)
			check := func(how string, pieces ...string) {
				k, _ := NewKernel(f.name, f.args)
				var got []byte
				for _, piece := range pieces {
					got = k.Apply(got, []byte(piece))
				}
				got = k.Finish(got)
				if !bytes.Equal(got, want) || ExitCode(k.Status()) != wantStatus {
					t.Fatalf("%s %v on %q, %s:\nper line: %q (exit %d)\nkernel:   %q (exit %d)", f.name, f.args,
						clipText(input), how, clipText(string(want)), wantStatus, clipText(string(got)), ExitCode(k.Status()))
				}
			}
			check("whole", input)
			if len(input) <= 400 {
				for cut := 1; cut < len(input); cut++ {
					check("cut in two", input[:cut], input[cut:])
				}
			}
			for round := 0; round < 4; round++ {
				var pieces []string
				for rest := input; len(rest) > 0; {
					n := 1 + rng.Intn(len(rest))
					pieces, rest = append(pieces, rest[:n]), rest[n:]
				}
				check("random pieces", pieces...)
			}
		}
	}
	// The forms that must not take it: their per-line kernel stays.
	for _, f := range []struct {
		name string
		args []string
	}{
		{"grep", []string{"-i", "wat.r"}}, {"grep", []string{"-w", "water"}}, {"grep", []string{"-x", "water"}},
		{"grep", []string{"-e", "a", "-e", "b"}}, {"grep", []string{"wat.r"}}, {"grep", []string{""}},
		{"sed", []string{"s/wat.r/x/"}}, {"sed", []string{"s/water/x/i"}}, {"sed", []string{"/a/s/water/x/"}},
		{"sed", []string{"-e", "s/a/b/", "-e", "s/c/d/"}}, {"sed", []string{"y/ab/ba/"}},
	} {
		k, ok := NewKernel(f.name, f.args)
		if !ok {
			t.Fatalf("NewKernel(%s %v) not capable", f.name, f.args)
		}
		if _, ok := k.(*lineKernel); !ok {
			t.Errorf("%s %v runs %T, want the per-line kernel", f.name, f.args, k)
		}
	}
}

// TestTrShiftMatchesTable: the word-wide translate is taken for exactly
// the one-range constant-shift tables, and agrees with the byte table on
// every byte value in every lane.
func TestTrShiftMatchesTable(t *testing.T) {
	var all []byte
	for lane := 0; lane < 9; lane++ {
		all = append(all, make([]byte, lane)...)
		for c := 0; c < 256; c++ {
			all = append(all, byte(c))
		}
	}
	for _, tc := range []struct {
		args  []string
		shift bool
	}{
		{[]string{"A-Z", "a-z"}, true},
		{[]string{"a-z", "A-Z"}, true},
		{[]string{"[:upper:]", "[:lower:]"}, true},
		{[]string{"0-9", "a-j"}, true},
		{[]string{"\\0-\\177", "\\0-\\177"}, false}, // identity
		{[]string{"a", "b"}, true},
		{[]string{"a-c", "x"}, false},         // not a constant shift
		{[]string{"a-zA-Z", "A-Za-z"}, false}, // two ranges
		{[]string{"\\200-\\220", "a-q"}, false},
	} {
		p, err := parseTrProgram(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if (p.shift != nil) != tc.shift {
			t.Errorf("tr %v: word-wide = %v, want %v", tc.args, p.shift != nil, tc.shift)
		}
		got := p.translate(nil, all)
		for i, c := range all {
			if got[i] != p.xlat[c] {
				t.Fatalf("tr %v: byte %#x at %d became %#x, table says %#x", tc.args, c, i, got[i], p.xlat[c])
			}
		}
		// Every length from 0 to 40, appended behind earlier output: the
		// sixteen-byte step, its byte tail, and both together.
		for n := 0; n <= 40; n++ {
			in := all[37*n%len(all):][:n]
			got := p.translate([]byte("out"), in)
			if len(got) != 3+n || string(got[:3]) != "out" {
				t.Fatalf("tr %v on %d bytes: %q", tc.args, n, got)
			}
			for i, c := range in {
				if got[3+i] != p.xlat[c] {
					t.Fatalf("tr %v on %d bytes: byte %#x at %d became %#x, table says %#x", tc.args, n, c, i, got[3+i], p.xlat[c])
				}
			}
		}
	}
}

// FuzzLiteralIndex: the literal kernels' word-wide search finds what
// bytes.Index finds, for any haystack and any needle, so a candidate the
// scan misses or one the compare wrongly keeps fails here.
func FuzzLiteralIndex(f *testing.F) {
	// Each haystack is long enough for the word loop, not only its tail.
	f.Add([]byte("the water is cold, the water is deep"), []byte("water"))
	f.Add([]byte("pqqpq pqqpq pqqpq pqqpq"), []byte("pq"))                                  // a byte one above a match
	f.Add([]byte("\x01water\x01\x80water\xff\x01r\x01\x80w\x80\x80"), []byte("r\x01\x80w")) // borrows and high bytes
	f.Add([]byte(strings.Repeat("wxxxr", 20)+"water"), []byte("water"))                     // candidate-dense, hit at the end
	f.Add([]byte(strings.Repeat("woods are lovely ", 3)), []byte("woods are lovely"))
	f.Add([]byte("abcdefgh abcdefgh abcdefgh"), []byte("abcdefghi"))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaab"), []byte("aab"))
	f.Add([]byte("a`cc...................."), []byte("acc")) // a borrowed flag whose middle matches
	f.Fuzz(func(t *testing.T, hay, needle []byte) {
		if len(needle) == 0 {
			return // the literal kernels never search for nothing
		}
		l := newLiteral(needle, nil)
		if got, want := l.index(hay), bytes.Index(hay, needle); got != want {
			t.Fatalf("index(%q, %q) = %d, bytes.Index says %d", hay, needle, got, want)
		}
		// Through the case fold: the masked loop, and the table compare.
		folded := foldASCII(needle)
		l = newLiteral(folded, &asciiFold)
		if got, want := l.index(hay), bytes.Index(foldASCII(hay), folded); got != want {
			t.Fatalf("folded index(%q, %q) = %d, bytes.Index of the folded bytes says %d", hay, folded, got, want)
		}
	})
}

// foldASCII is b through asciiFold, in a new slice.
func foldASCII(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = asciiFold[c]
	}
	return out
}

// kernelBenchText is n lines of the shape the benchmark's generator
// makes: 3-7 lower-case words a line (~32 bytes), one word in eight
// capitalised, "water" on about one line in eleven.
func kernelBenchText(n int) []byte {
	rng := rand.New(rand.NewSource(21))
	words := make([][]byte, 400)
	for i := range words {
		w := make([]byte, 3+i*3%7)
		for j := range w {
			w[j] = 'a' + byte(rng.Intn(26))
		}
		words[i] = w
	}
	var text []byte
	for i := 0; i < n; i++ {
		for j, k := 0, 3+rng.Intn(5); j < k; j++ {
			w := words[rng.Intn(len(words))]
			if rng.Intn(55) == 0 {
				w = []byte("water")
			}
			if j > 0 {
				text = append(text, ' ')
			}
			text = append(text, w...)
			if rng.Intn(8) == 0 {
				text[len(text)-len(w)] -= 'a' - 'A'
			}
		}
		text = append(text, '\n')
	}
	return text
}

// plainReader hides everything but Read.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// TestDataPlaneAllocations pins the steady state of the stateless data
// plane: a kernel's Apply into a block with room allocates nothing, the
// line-aligning reader hands on pool blocks without allocating or
// copying one per block, and NextBlock over a plain reader allocates
// nothing per block.
func TestDataPlaneAllocations(t *testing.T) {
	text := kernelBenchText(40_000)                                     // a little over 1 MiB
	blocks := [][]byte{text[:BlockSize], text[BlockSize : 2*BlockSize]} // both end mid-line
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tr", []string{"A-Z", "a-z"}},
		{"grep", []string{"water"}},
		{"cut", []string{"-d", " ", "-f1-3"}},
		{"sed", []string{"s/water/WATER/"}},
	} {
		k, ok := NewKernel(tc.name, tc.args)
		if !ok {
			t.Fatalf("NewKernel(%s %v) not capable", tc.name, tc.args)
		}
		out := make([]byte, 0, 2*BlockSize)
		run := func() {
			for _, b := range blocks {
				out = k.Apply(out[:0], b)
			}
		}
		run() // grow the carry and scratch buffers once
		if a := testing.AllocsPerRun(10, run); a != 0 {
			t.Errorf("%s %v: %.1f allocations per steady-state pass, want 0", tc.name, tc.args, a)
		}
	}

	mib := text[:bytes.LastIndexByte(text[:1<<20], '\n')+1]
	read := func(n int) float64 {
		input := bytes.Repeat(mib, n)
		return testing.AllocsPerRun(5, func() {
			err := EachLineBlock(plainReader{bytes.NewReader(input)}, func(b []byte) error {
				if cap(b) != BlockSize || b[len(b)-1] != '\n' {
					t.Fatalf("block of len %d cap %d, last byte %q", len(b), cap(b), b[len(b)-1])
				}
				PutBlock(b)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	// Not exactly flat: under the race detector sync.Pool drops a quarter
	// of what it is given. One allocation per block would be 112 more.
	if a1, a8 := read(1), read(8); a8-a1 > 112/2 {
		t.Errorf("EachLineBlock allocates per block: %.0f over 1 MiB, %.0f over 8 MiB", a1, a8)
	}

	if raceEnabled {
		return // the pool drops blocks on purpose: fresh ones are allocated
	}
	r := &bytes.Reader{}
	plain := io.Reader(plainReader{r})
	next := func() {
		r.Reset(mib)
		for {
			b, err := NextBlock(plain)
			if err == io.EOF {
				return
			}
			PutBlock(b)
		}
	}
	next() // warm the pool
	if a := testing.AllocsPerRun(10, next); a != 0 {
		t.Errorf("NextBlock over a plain reader: %.0f allocations over %d blocks, want 0", a, len(mib)/BlockSize+1)
	}
}

// countFresh counts the blocks the pool has to allocate until the test
// ends: every GetBlock it cannot serve from a given-back block is one.
// It is how a test sees whether blocks come back.
func countFresh(t *testing.T) *atomic.Int64 {
	var fresh atomic.Int64
	origNew := blockPool.New
	blockPool.New = func() interface{} { fresh.Add(1); return origNew() }
	t.Cleanup(func() { blockPool.New = origNew })
	return &fresh
}

// blockSource is a ChunkReader over fixed blocks: it hands each out as an
// owned pool block copy, as a pipe hands out the blocks queued in it, and
// keeps the copies it handed out since the last rewind.
type blockSource struct {
	blocks [][]byte
	handed [][]byte
}

func newBlockSource(blocks [][]byte) *blockSource {
	return &blockSource{blocks: blocks, handed: make([][]byte, 0, len(blocks))}
}

func (s *blockSource) rewind() { s.handed = s.handed[:0] }

func (s *blockSource) ReadChunk() ([]byte, error) {
	if len(s.handed) == len(s.blocks) {
		return nil, io.EOF
	}
	b := append(GetBlock(), s.blocks[len(s.handed)]...)
	s.handed = append(s.handed, b)
	return b, nil
}

func (s *blockSource) Read(p []byte) (int, error) { panic("blockSource is read by chunks") }

// chunkTaker is a ChunkWriter that keeps what it is handed.
type chunkTaker struct{ chunks [][]byte }

func (c *chunkTaker) Write(p []byte) (int, error) { panic("chunkTaker takes chunks") }
func (c *chunkTaker) WriteChunk(b []byte) error   { c.chunks = append(c.chunks, b); return nil }

// TestKernelChainAllocations pins the steady state of the one kernel
// loop: over the batch-stateless chain tr | grep | cut | sed, metered and
// with tr's slot a pass-through (Compose hands the tr to the grep), the
// stream form and the per-chunk form allocate nothing per block; and a
// chain that passes everything through hands each source block on
// uncopied, without giving it back: the source's blocks stay distinct,
// where a block given back would come out of the pool again.
func TestKernelChainAllocations(t *testing.T) {
	text := kernelBenchText(40_000)
	var blocks [][]byte // every one ends mid-line
	for i := 0; i+BlockSize <= len(text); i += BlockSize {
		blocks = append(blocks, text[i:i+BlockSize])
	}
	var ks []Kernel
	for _, st := range [][]string{{"tr", "A-Z", "a-z"}, {"grep", "water"}, {"cut", "-d", " ", "-f1-3"}, {"sed", "s/water/WATER/"}} {
		k, ok := NewKernel(st[0], st[1:])
		if !ok {
			t.Fatalf("NewKernel(%v) not capable", st)
		}
		ks = append(ks, k)
	}
	Compose(ks)
	if !passThrough(ks[0]) {
		t.Fatal("tr A-Z a-z did not compose into grep water: no pass-through slot")
	}
	kc := KernelChain{Kernels: ks, Meters: make([]StageTime, len(ks))}
	sink := &chunkSink{}
	src := newBlockSource(blocks)
	forms := map[string]func(){
		"stream": func() {
			src.rewind()
			must(t, kc.Stream(src, sink))
		},
		"per-chunk": func() {
			src.rewind()
			for b, err := src.ReadChunk(); err == nil; b, err = src.ReadChunk() {
				must(t, sink.WriteChunk(kc.Chunk(b)))
			}
		},
	}
	for form, run := range forms {
		run()
		if sink.bytes == 0 || kc.Meters[1].BytesIn == 0 || kc.Meters[0] != (StageTime{}) {
			t.Fatalf("%s: %d bytes out, meters %+v: want output, grep charged and the pass-through slot not", form, sink.bytes, kc.Meters)
		}
		if raceEnabled {
			continue // the pool drops blocks on purpose: fresh ones are allocated
		}
		if a := testing.AllocsPerRun(10, run); a != 0 {
			t.Errorf("%s: %.0f allocations per pass over %d blocks, want 0", form, a, len(blocks))
		}
	}

	cat, _ := NewKernel("cat", nil)
	through := KernelChain{Kernels: []Kernel{cat, cat}}
	src, taker := newBlockSource(blocks), &chunkTaker{}
	seen := map[*byte]bool{}
	check := func(form string) {
		if len(taker.chunks) != len(blocks) {
			t.Fatalf("%s: %d blocks out of %d: want every source block handed on", form, len(taker.chunks), len(blocks))
		}
		for i, out := range taker.chunks {
			if b := src.handed[i]; &out[0] != &b[0] || len(out) != len(b) {
				t.Fatalf("%s: block %d came out as a copy", form, i)
			}
			if seen[&out[0]] {
				t.Fatalf("%s: block %d came out of the pool again: it was handed on and given back", form, i)
			}
			seen[&out[0]] = true
		}
		taker.chunks = nil
	}
	must(t, through.Stream(src, taker))
	check("stream")
	src.rewind()
	for b, err := src.ReadChunk(); err == nil; b, err = src.ReadChunk() {
		taker.chunks = append(taker.chunks, through.Chunk(b))
	}
	check("per-chunk")
}

// TestChunkHandOffToPlainWriter: a chunk that reaches a writer which
// does not take chunks is copied out and then given back to the pool —
// by CopyChunks, by the round-robin merge and by a kernel chain no stage
// of which replaced the chunk. Counted at the pool, as in
// TestLineWriterReturnsItsBlock: a hand-off that kept its chunks would
// cost a fresh block for every chunk of every cycle.
func TestChunkHandOffToPlainWriter(t *testing.T) {
	fresh := countFresh(t)
	blocks := [][]byte{[]byte("a\nb\n"), []byte("c\n"), []byte("d\ne\n")}
	want := "a\nb\nc\nd\ne\n"
	cat, _ := NewKernel("cat", nil)
	const cycles = 200
	for name, run := range map[string]func(w io.Writer) error{
		"CopyChunks": func(w io.Writer) error {
			_, err := CopyChunks(w, newBlockSource(blocks))
			return err
		},
		"MergeChunksRoundRobin": func(w io.Writer) error {
			even, odd := newBlockSource([][]byte{blocks[0], blocks[2]}), newBlockSource(blocks[1:2])
			return MergeChunksRoundRobin([]io.Reader{even, odd}, w)
		},
		"KernelChain.Stream": func(w io.Writer) error {
			return KernelChain{Kernels: []Kernel{cat}}.Stream(newBlockSource(blocks), w)
		},
	} {
		before := fresh.Load()
		for i := 0; i < cycles; i++ {
			var out bytes.Buffer
			must(t, run(&out))
			if out.String() != want {
				t.Fatalf("%s: wrote %q, want %q", name, out.String(), want)
			}
		}
		// Half a chunk a cycle, not zero: under the race detector
		// sync.Pool drops a quarter of what it is given.
		if n := fresh.Load() - before; n > cycles*int64(len(blocks))/2 {
			t.Errorf("%s: %d fresh blocks over %d cycles of %d chunks, want the chunks given back", name, n, cycles, len(blocks))
		}
	}
}

// chunkSink is a ChunkWriter that recycles what it is handed, as a pipe's
// reader does once it has drained a chunk.
type chunkSink struct{ bytes, chunks int }

func (c *chunkSink) Write(p []byte) (int, error) { c.bytes += len(p); return len(p), nil }
func (c *chunkSink) WriteChunk(b []byte) error {
	c.bytes, c.chunks = c.bytes+len(b), c.chunks+1
	PutBlock(b)
	return nil
}

// TestLineWriterReturnsItsBlock: a LineWriter takes its staging block on
// the first write and Flush gives it up — downstream with a ChunkWriter,
// back to the pool otherwise — so a command that writes less than a block
// leaves the pool as it found it. Counted at the pool: every GetBlock the
// pool cannot serve from a returned block is a fresh 64 KiB allocation.
// The bound is half a block per cycle, not zero, because under the race
// detector sync.Pool drops a quarter of what it is given; a writer that
// keeps its block costs one per cycle (two behind a ChunkWriter).
func TestLineWriterReturnsItsBlock(t *testing.T) {
	fresh := countFresh(t)

	const cycles = 200
	line := []byte("a line of output")
	for _, tc := range []struct {
		name  string
		plain bool
	}{{"chunk writer", false}, {"plain writer", true}} {
		c := &chunkSink{}
		var w io.Writer = c
		if tc.plain {
			w = plainWriter{c}
		}
		if err := NewLineWriter(w).Flush(); err != nil { // never written to
			t.Fatal(err)
		}
		before := fresh.Load()
		for i := 0; i < cycles; i++ {
			lw := NewLineWriter(w)
			if lw.buf != nil {
				t.Fatalf("%s: a block is held before the first write", tc.name)
			}
			for j := 0; j < 3; j++ {
				if err := lw.WriteLine(line); err != nil {
					t.Fatal(err)
				}
			}
			if err := lw.Flush(); err != nil {
				t.Fatal(err)
			}
			if lw.buf != nil {
				t.Fatalf("%s: a block is held after Flush", tc.name)
			}
		}
		if n := fresh.Load() - before; n > cycles/2 {
			t.Errorf("%s: %d fresh blocks over %d write-and-flush cycles, want the pool's own block to come back", tc.name, n, cycles)
		}
		if want := cycles * 3 * (len(line) + 1); c.bytes != want {
			t.Errorf("%s: %d bytes reached the sink, want %d", tc.name, c.bytes, want)
		}
		if want := map[bool]int{false: cycles, true: 0}[tc.plain]; c.chunks != want {
			t.Errorf("%s: %d chunks handed over, want %d", tc.name, c.chunks, want)
		}
	}

	// A writer that fills its block hands it on and takes another: what is
	// written is what arrives, and the last block comes back too.
	c := &chunkSink{}
	lw := NewLineWriter(c)
	long := bytes.Repeat([]byte("x"), BlockSize/4)
	for i := 0; i < 9; i++ {
		must(t, lw.WriteLine(long))
	}
	must(t, lw.Flush())
	if want := 9 * (len(long) + 1); c.bytes != want || c.chunks != 3 || lw.buf != nil {
		t.Errorf("multi-block: %d bytes in %d chunks (held %v), want %d in 3", c.bytes, c.chunks, lw.buf != nil, want)
	}
}

// plainWriter hides everything but Write.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// BenchmarkKernels measures the hot kernels over generated text, block by
// block as the chain runner feeds them, and wc -l through its command.
func BenchmarkKernels(b *testing.B) {
	text := kernelBenchText(200_000)
	var blocks [][]byte
	for rest := text; len(rest) > 0; {
		n := min(BlockSize, len(rest))
		blocks, rest = append(blocks, rest[:n]), rest[n:]
	}
	for _, tc := range []struct {
		row, name string
		args      []string
	}{
		{"tr", "tr", []string{"A-Z", "a-z"}},
		{"grep-fixed", "grep", []string{"water"}},
		{"sed-literal", "sed", []string{"s/water/WATER/"}},
		{"cut", "cut", []string{"-d", " ", "-f1-3"}},
	} {
		b.Run(tc.row, func(b *testing.B) {
			k, _ := NewKernel(tc.name, tc.args)
			out := make([]byte, 0, 2*BlockSize)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					out = k.Apply(out[:0], blk)
				}
				out = k.Finish(out[:0])
			}
		})
	}
	// tr A-Z a-z | grep water as two kernels one after the other, and as
	// the one kernel Compose makes of them.
	for _, composed := range []bool{false, true} {
		row := "tr+grep"
		if composed {
			row = "tr|grep-composed"
		}
		b.Run(row, func(b *testing.B) {
			tk, _ := NewKernel("tr", []string{"A-Z", "a-z"})
			gk, _ := NewKernel("grep", []string{"water"})
			ks := []Kernel{tk, gk}
			if composed {
				Compose(ks)
			}
			mid, out := make([]byte, 0, 2*BlockSize), make([]byte, 0, 2*BlockSize)
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					in := blk
					if !composed {
						mid = ks[0].Apply(mid[:0], blk)
						in = mid
					}
					out = ks[1].Apply(out[:0], in)
				}
				out = ks[1].Finish(out[:0])
			}
		})
	}
	b.Run("wc-l", func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := &Context{Args: []string{"-l"}, Stdin: bytes.NewReader(text), Stdout: io.Discard, Stderr: io.Discard}
			if err := Std().Run("wc", ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
