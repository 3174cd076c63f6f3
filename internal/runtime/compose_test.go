package runtime

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/commands"
	"repro/internal/dfg"
)

// composeCase is a tr | grep pair and whether commands.Compose must hand
// the tr to the grep.
type composeCase struct {
	tr, grep []string
	composes bool
}

var composeCases = []composeCase{
	// Needles of 1, 2, 5, 8, 9 and 16 bytes behind a case fold.
	{[]string{"A-Z", "a-z"}, []string{"w"}, true},
	{[]string{"A-Z", "a-z"}, []string{"wa"}, true},
	{[]string{"A-Z", "a-z"}, []string{"water"}, true},
	{[]string{"A-Z", "a-z"}, []string{"the wood"}, true},
	{[]string{"A-Z", "a-z"}, []string{"the woods"}, true},
	{[]string{"A-Z", "a-z"}, []string{"woods are lovely"}, true},
	{[]string{"A-Z", "a-z"}, []string{"-F", "o w"}, true},
	{[]string{"a-z", "A-Z"}, []string{"WATER"}, true},
	{[]string{"a-z", "A-Z"}, []string{"W"}, true},
	{[]string{"[:upper:]", "[:lower:]"}, []string{"water"}, true},
	// A two-range one-to-one map (rot13): one preimage a byte.
	{[]string{"a-zA-Z", "n-za-mN-ZA-M"}, []string{"jngre"}, true},
	{[]string{"a-zA-Z", "n-za-mN-ZA-M"}, []string{"gur jbbqf"}, true},
	// A complement translation whose needle ends have one preimage each.
	{[]string{"-c", "a-z\\n", " "}, []string{"water"}, true},
	{[]string{"-c", "a-z\\n", " "}, []string{"the woods"}, true},
	// Two preimages that differ in more than one bit: z and a.
	{[]string{"a", "z"}, []string{"zoo"}, true},
	// Needle bytes with no preimage: no line can match.
	{[]string{"A-Z", "a-z"}, []string{"WATER"}, true},
	{[]string{"a-z", "x"}, []string{"water"}, true},

	// tr that moves lines, deletes or squeezes.
	{[]string{" ", "\\n"}, []string{"water"}, false},
	{[]string{"\\n", " "}, []string{"water"}, false},
	{[]string{"-d", "aeiou"}, []string{"wtr"}, false},
	{[]string{"-s", " "}, []string{"water"}, false},
	// Needle ends with more than two preimages.
	{[]string{"a-z", "x"}, []string{"xx"}, false},
	{[]string{"-c", "a-z\\n", " "}, []string{" w"}, false},
	// grep forms other than a plain literal selection.
	{[]string{"A-Z", "a-z"}, []string{"-v", "water"}, false},
	{[]string{"A-Z", "a-z"}, []string{"-i", "water"}, false},
	{[]string{"A-Z", "a-z"}, []string{"wat.r"}, false},
	{[]string{"A-Z", "a-z"}, []string{"-x", "water"}, false},
}

// composeInputs are the adversarial inputs: empty, no final newline,
// blank runs, a line longer than a block, a hit that straddles the 64 KiB
// block boundary, high bytes around the case ranges.
func composeInputs(rng *rand.Rand) []string {
	straddle := strings.Repeat("a", commands.BlockSize-3) + "WATER the woods\n" + "tail WaTeR\n"
	inputs := []string{
		"",
		"water",
		"no final newline, WATER",
		"\n\n\nwater\n\n\n\nWATER\n\n",
		strings.Repeat("x", 3*commands.BlockSize) + " water\nshort\n",
		straddle,
		"\x80\xc1WATER\xff\xd7ater\n\xc3\x89 w\xe1ter \xf7\xd7ATER\nzoo aoo zoa aoa\n\x00water\x00\n",
		"The Woods Are Lovely\nTHE WOODS\nthe wood\ngur jbbqf jngre\n  w  ater\nxx\n",
	}
	words := []string{"water", "WATER", "Water", "woods", "the", "The", "are", "lovely", "zoo", "aoo", "o w", "jngre", " ", "\x80", "x"}
	for i := 0; i < 6; i++ {
		var sb strings.Builder
		for j := rng.Intn(3000); j > 0; j-- {
			sb.WriteString(words[rng.Intn(len(words))])
			if rng.Intn(4) == 0 {
				sb.WriteByte('\n')
			} else {
				sb.WriteByte(' ')
			}
		}
		inputs = append(inputs, sb.String())
	}
	return inputs
}

// pieceReader serves its input as chunks of random sizes.
type pieceReader struct {
	rest []byte
	rng  *rand.Rand
}

func (p *pieceReader) Read([]byte) (int, error) { panic("chunk sources are read by ReadChunk") }

func (p *pieceReader) ReadChunk() ([]byte, func(), error) {
	if len(p.rest) == 0 {
		return nil, func() {}, io.EOF
	}
	n := 1 + p.rng.Intn(min(len(p.rest), 2*commands.BlockSize))
	if p.rng.Intn(4) == 0 {
		n = min(len(p.rest), commands.BlockSize)
	}
	b := p.rest[:n]
	p.rest = p.rest[n:]
	return b, func() {}, nil
}

// composedPair builds the case's kernel set twice, the second composed.
func composedPair(t testing.TB, tc composeCase) (plain, composed []commands.Kernel) {
	for _, ks := range []*[]commands.Kernel{&plain, &composed} {
		for _, st := range [][]string{append([]string{"tr"}, tc.tr...), append([]string{"grep"}, tc.grep...)} {
			k, ok := commands.Std().NewKernel(st[0], st[1:])
			if !ok {
				t.Fatalf("%v: no kernel", st)
			}
			*ks = append(*ks, k)
		}
	}
	before := append([]commands.Kernel(nil), composed...)
	commands.Compose(composed)
	_, absorbed := composed[0].(interface{ IsPassThrough() })
	if absorbed != tc.composes {
		t.Fatalf("tr %v | grep %v: composed = %v, want %v", tc.tr, tc.grep, absorbed, tc.composes)
	}
	if !tc.composes && (composed[0] != before[0] || composed[1] != before[1]) {
		t.Fatalf("tr %v | grep %v: a pair that does not compose changed the kernel set", tc.tr, tc.grep)
	}
	return plain, composed
}

// checkComposed runs both kernel sets over input, streaming and framed,
// at the same random chunking, and requires the same bytes and status.
func checkComposed(t testing.TB, tc composeCase, input string, seed int64) {
	plain, composed := composedPair(t, tc)
	stream := func(ks []commands.Kernel) (string, int) {
		var out bytes.Buffer
		kc := commands.KernelChain{Kernels: ks, Meters: make([]commands.StageTime, len(ks))}
		err := kc.Stream(&pieceReader{rest: []byte(input), rng: rand.New(rand.NewSource(seed))}, &out)
		if err == nil {
			err = ks[len(ks)-1].Status()
		}
		status, err := exitStatus(err)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), status
	}
	stages := []dfg.FusedStage{{Name: "tr", Args: tc.tr}, {Name: "grep", Args: tc.grep}}
	chain, err := NewStageChain(commands.Std(), stages, commands.OSFS{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	framed := func(ks []commands.Kernel) (string, int) {
		var frames []string
		src := &pieceReader{rest: []byte(input), rng: rand.New(rand.NewSource(seed))}
		for {
			b, release, err := src.ReadChunk()
			if err == io.EOF {
				break
			}
			out, err := chain.applyChunk(ks, b, release)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, string(out))
			commands.PutBlock(out)
		}
		return strings.Join(frames, "\x00"), commands.ExitCode(ks[len(ks)-1].Status())
	}
	for form, run := range map[string]func([]commands.Kernel) (string, int){"stream": stream, "framed": framed} {
		want, wantStatus := run(plain)
		got, status := run(composed)
		if got != want || status != wantStatus {
			t.Fatalf("tr %v | grep %v, %s, on %q:\nstages:   %q (exit %d)\ncomposed: %q (exit %d)",
				tc.tr, tc.grep, form, clip(input), clip(want), wantStatus, clip(got), status)
		}
	}
}

// TestComposedChainMatchesStages: Compose hands exactly the qualifying tr
// to the grep after it, and the composed set prints what the two kernels
// print one after the other, in bytes and in status, streaming and framed
// at random chunkings.
func TestComposedChainMatchesStages(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	inputs := composeInputs(rng)
	for _, tc := range composeCases {
		for _, input := range inputs {
			for round := 0; round < 3; round++ {
				checkComposed(t, tc, input, rng.Int63())
			}
		}
	}
}

// FuzzComposedChain is the same property with the fuzzer choosing the
// input, the chunking, the tr sets and the needle.
func FuzzComposedChain(f *testing.F) {
	for i, input := range composeInputs(rand.New(rand.NewSource(45))) {
		if len(input) < 4096 {
			tc := composeCases[i%len(composeCases)]
			f.Add([]byte(input), int64(i), tc.tr[0], tc.tr[len(tc.tr)-1], []byte(tc.grep[len(tc.grep)-1]), uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, input []byte, seed int64, set1, set2 string, needle []byte, flags uint8) {
		needle = bytes.ReplaceAll(needle, []byte("\n"), nil)
		if len(needle) == 0 || len(needle) > 24 || strings.HasPrefix(set1, "-") || strings.HasPrefix(set2, "-") {
			return
		}
		tr := []string{set1, set2}
		switch flags % 4 {
		case 1:
			tr = []string{"-c", set1, set2}
		case 2:
			tr = []string{"-s", set1, set2}
		}
		grep := []string{"-F", "-e", string(needle)}
		if flags&4 != 0 {
			grep = append([]string{"-v"}, grep...)
		}
		k, ok := commands.Std().NewKernel("tr", tr)
		if !ok {
			return
		}
		// The rule, read off tr's output for every byte value: no -s, no
		// -v, '\n' the only preimage of '\n', and at most two preimages
		// of each end of the needle.
		all := make([]byte, 256)
		for i := range all {
			all[i] = byte(i)
		}
		image := k.Apply(nil, all)
		preimages := func(c byte) int { return bytes.Count(image, []byte{c}) }
		composes := flags%4 != 2 && flags&4 == 0 && image['\n'] == '\n' && preimages('\n') == 1 &&
			preimages(needle[0]) <= 2 && preimages(needle[len(needle)-1]) <= 2
		checkComposed(t, composeCase{tr: tr, grep: grep, composes: composes}, string(input), seed)
	})
}
