package commands

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/annot"
)

func init() { register("tr", tr) }

// trProgram is the compiled form of a tr invocation: the byte tables
// that drive trKernel's per-byte state machine.
type trProgram struct {
	del, squeeze      bool
	inSet1, inSqueeze [256]bool
	xlat              [256]byte
	// newlineIntact is true when the transformation leaves '\n'
	// untouched, in which case line structure is preserved and a final
	// unterminated line is re-emitted newline-terminated (the shared
	// convention of this command substrate).
	newlineIntact bool
	// shift is set when xlat is the identity except for one contiguous
	// ASCII range moved by a constant (A-Z a-z and its spellings):
	// translate then maps sixteen bytes per step.
	shift *trShift
}

// trShift is xlat as word arithmetic. With h the low seven bits of each
// byte of a word, h+ge carries into a byte's top bit where the byte is
// >= lo and h+gt where it is > hi. The bytes in range (and below 0x80)
// then have delta added, as one 64-bit addition of delta times a word
// with a 1 in each such byte: a negative delta is its two's complement,
// and no byte carries or borrows into its neighbour because lo+delta and
// hi+delta are bytes too.
type trShift struct{ ge, gt, delta uint64 }

const (
	lowBytes  = 0x0101010101010101
	highBits  = 0x8080808080808080
	lowSevens = 0x7f7f7f7f7f7f7f7f
)

// shiftOf recognizes the tables translate can run word-wide.
func shiftOf(xlat *[256]byte) *trShift {
	lo, hi := -1, -1
	for i, c := range xlat {
		if int(c) != i {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 || hi >= 0x80 {
		return nil
	}
	delta := int(xlat[lo]) - lo
	for i := lo; i <= hi; i++ {
		if int(xlat[i])-i != delta {
			return nil
		}
	}
	return &trShift{ge: uint64(0x80-lo) * lowBytes, gt: uint64(0x7f-hi) * lowBytes, delta: uint64(delta)}
}

// translate appends xlat applied to every byte of in: one pass, written
// where it lands. The shift form maps sixteen bytes a step; advancing the
// two slices, rather than indexing them, lets the compiler drop the
// bounds checks of each word.
func (p *trProgram) translate(out, in []byte) []byte {
	n := len(out)
	out = slices.Grow(out, len(in))[:n+len(in)]
	src, dst := in, out[n:]
	if p.shift != nil {
		sh := *p.shift
		for len(src) >= 16 && len(dst) >= 16 {
			binary.LittleEndian.PutUint64(dst, sh.word(binary.LittleEndian.Uint64(src)))
			binary.LittleEndian.PutUint64(dst[8:], sh.word(binary.LittleEndian.Uint64(src[8:])))
			src, dst = src[16:], dst[16:]
		}
	}
	for i, c := range src {
		dst[i] = p.xlat[c]
	}
	return out
}

// mapsLines reports whether the program is a pure byte map that leaves
// every line where it was: no -d, no -s, '\n' intact and no other byte
// onto '\n'. Such a tr can run inside the grep after it (Compose).
func (p *trProgram) mapsLines() bool {
	if p.del || p.squeeze || !p.newlineIntact {
		return false
	}
	for i, c := range p.xlat {
		if c == '\n' && i != '\n' {
			return false
		}
	}
	return true
}

// word shifts the in-range bytes of w.
func (sh trShift) word(w uint64) uint64 {
	h := w & lowSevens
	inRange := ((h + sh.ge) &^ (h + sh.gt) &^ w & highBits) >> 7
	return w + inRange*sh.delta
}

// parseTrProgram compiles tr's argv into the byte tables.
func parseTrProgram(args []string) (*trProgram, error) {
	var del, squeeze, complement bool
	var sets []string
	for _, a := range args {
		switch {
		case a == "-d":
			del = true
		case a == "-s":
			squeeze = true
		case a == "-c" || a == "-C":
			complement = true
		case a == "-cs" || a == "-sc" || a == "-Cs" || a == "-sC":
			complement, squeeze = true, true
		case a == "-ds" || a == "-sd":
			del, squeeze = true, true
		case a == "-cd" || a == "-dc":
			complement, del = true, true
		case len(a) > 1 && a[0] == '-':
			return nil, fmt.Errorf("unsupported flag %q", a)
		default:
			sets = append(sets, a)
		}
	}
	if len(sets) == 0 || len(sets) > 2 {
		return nil, fmt.Errorf("expected 1 or 2 sets, got %d", len(sets))
	}

	set1, err := expandTrSet(sets[0])
	if err != nil {
		return nil, fmt.Errorf("bad set %q: %v", sets[0], err)
	}
	var set2 []byte
	if len(sets) == 2 {
		set2, err = expandTrSet(sets[1])
		if err != nil {
			return nil, fmt.Errorf("bad set %q: %v", sets[1], err)
		}
	}

	p := &trProgram{del: del, squeeze: squeeze}
	for _, c := range set1 {
		p.inSet1[c] = true
	}
	if complement {
		for i := range p.inSet1 {
			p.inSet1[i] = !p.inSet1[i]
		}
	}

	// Translation table.
	for i := range p.xlat {
		p.xlat[i] = byte(i)
	}
	if len(set2) > 0 && !del {
		if complement {
			// Complemented translation maps every char in the complement
			// to the last char of set2 (GNU behaviour).
			last := set2[len(set2)-1]
			for i := 0; i < 256; i++ {
				if p.inSet1[i] {
					p.xlat[i] = last
				}
			}
		} else {
			for i, c := range set1 {
				j := i
				if j >= len(set2) {
					j = len(set2) - 1 // pad with last char, GNU style
				}
				p.xlat[c] = set2[j]
			}
		}
	}

	// Squeeze set: with -d -s it is set2; with -s alone it is the result
	// set (set2 if given, else set1 possibly complemented).
	if squeeze {
		sq := set2
		if len(sets) == 1 {
			sq = nil
			for i := 0; i < 256; i++ {
				if p.inSet1[i] {
					sq = append(sq, byte(i))
				}
			}
		}
		for _, c := range sq {
			p.inSqueeze[c] = true
		}
	}
	p.newlineIntact = !(p.inSet1['\n'] && (del || p.xlat['\n'] != '\n'))
	p.shift = shiftOf(&p.xlat)
	return p, nil
}

// refineTr demotes a tr invocation that deletes or rewrites newlines
// from stateless to pure. Stateless means a map over lines: every
// consumer of a stateless replica (a framed successor, a commutative map
// behind an absorbed round-robin merge, a stream window) relies on its
// chunks ending where lines end, and `tr -d '\n'` or `tr '\n' ' '` glues
// lines across chunk boundaries. Squeezing newlines keeps chunks
// line-aligned and stays stateless, and an invocation tr itself rejects
// keeps them vacuously.
func refineTr(inv *annot.Invocation) {
	if inv.Class != annot.Stateless {
		return
	}
	if p, err := parseTrProgram(inv.Opts.Raw); err == nil && !p.newlineIntact {
		inv.Class = annot.Pure
	}
}

// tr transliterates, squeezes, or deletes characters. Flags: -d (delete
// SET1), -s (squeeze repeats from the last operand set), -c/-C
// (complement SET1). Sets support ranges (a-z), escapes (\n, \t, \\),
// and the classes [:alpha:], [:digit:], [:alnum:], [:space:], [:upper:],
// [:lower:], [:punct:].
func tr(ctx *Context) error {
	p, err := parseTrProgram(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}
	return runKernel(ctx, p.kernel(), nil)
}

// trKernel runs tr's per-byte state machine. It treats '\n' as an
// ordinary byte, so tr '\n' ' ' and tr -d '\n' behave like GNU tr. When
// newlines survive the transformation untouched, line structure is
// preserved and a final unterminated line is re-emitted newline-terminated
// — the convention shared by this command substrate; when the
// transformation deletes or rewrites newlines, output is the raw byte
// transformation. State (squeeze history, final-newline bookkeeping)
// resets at Finish so framed per-chunk streams behave exactly like
// independent tr invocations.
type trKernel struct {
	p        *trProgram
	lastOut  int
	lastIn   byte
	sawInput bool
}

func (p *trProgram) kernel() *trKernel { return &trKernel{p: p, lastOut: -1, lastIn: '\n'} }

func newTrKernel(args []string) (Kernel, bool) {
	p, err := parseTrProgram(args)
	if err != nil {
		return nil, false
	}
	return p.kernel(), true
}

func (k *trKernel) Apply(out, in []byte) []byte {
	if len(in) == 0 {
		return out
	}
	k.sawInput = true
	k.lastIn = in[len(in)-1]
	p := k.p
	if !p.del && !p.squeeze {
		return p.translate(out, in)
	}
	for _, c := range in {
		if p.del && p.inSet1[c] {
			continue
		}
		nc := c
		if !p.del && p.inSet1[c] {
			nc = p.xlat[c]
		}
		if p.squeeze && p.inSqueeze[nc] && k.lastOut == int(nc) {
			continue
		}
		out = append(out, nc)
		k.lastOut = int(nc)
	}
	return out
}

func (k *trKernel) Finish(out []byte) []byte {
	if k.p.newlineIntact && k.sawInput && k.lastIn != '\n' {
		if !(k.p.squeeze && k.p.inSqueeze['\n'] && k.lastOut == '\n') {
			out = append(out, '\n')
		}
	}
	k.lastOut, k.lastIn, k.sawInput = -1, '\n', false
	return out
}

func (k *trKernel) Status() error { return nil }

// expandTrSet expands a tr SET operand into its byte sequence.
func expandTrSet(s string) ([]byte, error) {
	var out []byte
	i := 0
	for i < len(s) {
		// Character class.
		if strings.HasPrefix(s[i:], "[:") {
			end := strings.Index(s[i:], ":]")
			if end >= 0 {
				name := s[i+2 : i+end]
				cls, ok := trClass(name)
				if !ok {
					return nil, errBadClass(name)
				}
				out = append(out, cls...)
				i += end + 2
				continue
			}
		}
		c, n := trChar(s[i:])
		i += n
		// Range?
		if i < len(s) && s[i] == '-' && i+1 < len(s) {
			hi, hn := trChar(s[i+1:])
			if hi >= c {
				for b := c; b <= hi; b++ {
					out = append(out, b)
					if b == 255 {
						break
					}
				}
				i += 1 + hn
				continue
			}
		}
		out = append(out, c)
	}
	return out, nil
}

type badClassError string

func (e badClassError) Error() string { return "unknown class [:" + string(e) + ":]" }

func errBadClass(name string) error { return badClassError(name) }

func trChar(s string) (byte, int) {
	if s[0] == '\\' && len(s) > 1 {
		switch s[1] {
		case 'n':
			return '\n', 2
		case 't':
			return '\t', 2
		case 'r':
			return '\r', 2
		case '\\':
			return '\\', 2
		case '0':
			return 0, 2
		default:
			return s[1], 2
		}
	}
	return s[0], 1
}

func trClass(name string) ([]byte, bool) {
	var out []byte
	add := func(pred func(byte) bool) {
		for i := 0; i < 256; i++ {
			if pred(byte(i)) {
				out = append(out, byte(i))
			}
		}
	}
	switch name {
	case "alpha":
		add(func(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' })
	case "digit":
		add(func(c byte) bool { return c >= '0' && c <= '9' })
	case "alnum":
		add(func(c byte) bool {
			return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		})
	case "space":
		add(func(c byte) bool {
			return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
		})
	case "upper":
		add(func(c byte) bool { return c >= 'A' && c <= 'Z' })
	case "lower":
		add(func(c byte) bool { return c >= 'a' && c <= 'z' })
	case "punct":
		add(func(c byte) bool {
			return c >= '!' && c <= '/' || c >= ':' && c <= '@' || c >= '[' && c <= '`' || c >= '{' && c <= '~'
		})
	default:
		return nil, false
	}
	return out, true
}
