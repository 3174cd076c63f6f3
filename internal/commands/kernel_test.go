package commands

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
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
	{"grep", []string{"th"}},
	{"grep", []string{"-v", "th"}},
	{"grep", []string{"-F", "o w"}},
	{"grep", []string{"-i", "THE"}},
	{"grep", []string{"-x", "the end"}},
	{"grep", []string{"-w", "the"}},
	{"grep", []string{"-E", "t.e|o+"}},
	{"cut", []string{"-d", " ", "-f", "1"}},
	{"cut", []string{"-d", " ", "-f", "2-3,5-"}},
	{"cut", []string{"-d", " ", "-f", "1", "-s"}},
	{"cut", []string{"-c", "1-4"}},
	{"cut", []string{"-c", "2,4-"}},
	{"sed", []string{"s/the/THE/"}},
	{"sed", []string{"s/o/0/g"}},
	{"sed", []string{"-e", "s/a/A/", "-e", "y/e/E/"}},
	{"sed", []string{"/the/s/end/END/"}},
	{"rev", nil},
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
// kernel case — run as its command, through the kernel driver — must
// print what the host's tool prints under LC_ALL=C, and exit alike.
func TestKernelsAgainstHostCoreutils(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var inputs []string
	for _, input := range append(append([]string{}, kernelInputs...), randomTexts(rng, 8)...) {
		if input != "" && !strings.HasSuffix(input, "\n") {
			input += "\n"
		}
		inputs = append(inputs, input)
	}
	for _, tool := range []string{"tr", "cut", "sed", "grep", "rev"} {
		t.Run(tool, func(t *testing.T) {
			path, err := exec.LookPath(tool)
			if err != nil {
				t.Skipf("no host %s", tool)
			}
			for _, tc := range kernelCases {
				if tc.name != tool {
					continue
				}
				for _, input := range inputs {
					cmd := exec.Command(path, tc.args...)
					cmd.Env = append(os.Environ(), "LC_ALL=C", "LANG=C")
					cmd.Stdin = strings.NewReader(input)
					want, herr := cmd.Output()
					var exit *exec.ExitError
					if herr != nil && !errors.As(herr, &exit) {
						t.Fatalf("host %s %v: %v", tool, tc.args, herr)
					}
					got, err := runCommandOn(t, tc.name, tc.args, input)
					if got != string(want) {
						t.Fatalf("%s %v on %q:\nhost: %q\nours: %q",
							tool, tc.args, clipText(input), clipText(string(want)), clipText(got))
					}
					if ExitCode(err) != cmd.ProcessState.ExitCode() {
						t.Fatalf("%s %v on %q: exit %d, host %d",
							tool, tc.args, clipText(input), ExitCode(err), cmd.ProcessState.ExitCode())
					}
				}
			}
		})
	}
}

// tokenSource is a chunk source that interleaves empty framing tokens
// with its data chunks.
type tokenSource struct{ chunks [][]byte }

func (s *tokenSource) Read([]byte) (int, error) { panic("chunk sources are read by ReadChunk") }

func (s *tokenSource) ReadChunk() ([]byte, func(), error) {
	if len(s.chunks) == 0 {
		return nil, func() {}, io.EOF
	}
	b := s.chunks[0]
	s.chunks = s.chunks[1:]
	return b, func() {}, nil
}

// TestNextBlock pins the block reader's two promises: a chunk source's
// empty framing tokens are dropped, and a plain reader is read once per
// block, not until the block is full.
func TestNextBlock(t *testing.T) {
	drain := func(r io.Reader) (blocks []string) {
		for {
			b, release, err := NextBlock(r)
			if err == io.EOF {
				return blocks
			}
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, string(b))
			release()
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
		if !KernelCapable(c[0].(string), c[1].([]string)) {
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
		if KernelCapable(c[0].(string), c[1].([]string)) {
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
