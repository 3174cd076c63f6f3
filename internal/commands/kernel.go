package commands

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"time"
)

// This file defines the kernel layer: the per-block form of the hot
// stateless commands, and the one loop that runs it (KernelChain). A
// kernel is not a second implementation of its command — it is the
// command. tr, cut and rev are argv-parse + runKernel; sed and grep run
// runKernel for every invocation their kernel accepts, and keep a
// per-line loop of their own only for the position-dependent flags (sed:
// numeric addresses, p d q = and -n; grep: -n -c -m -q -l -o -H), around
// the same per-line body the kernel wraps. Each kernel lives next to its
// command's argv parser.
//
// What a kernel scans, per block and per line: tr has no lines, it maps
// the block in one pass. lineKernel finds every newline of the block and
// runs the command's per-line body on each line (cut, rev, and every
// grep and sed the next form does not take). literalKernel — grep and sed
// with one fixed string to look for — searches the block for the string
// and runs the per-line body only on the lines that hold it; the lines
// between two hits are copied or dropped as one run of bytes, never
// visited on their own. The aim is a cost per byte, not per line: tr and
// the literal form look at each input byte once, in a word-wide scan.
// The literal scan (literal.index) tests eight start positions a step for
// the needle's first and last byte; a position that passes both is only a
// candidate, and a compare decides it, so a false candidate costs one
// compare and no hit is missed.
//
// The scan can read the block through a 256-byte table: it then finds
// the needle in the table's image of the block without making that
// image. Each loaded word is OR'd with the bits in which the preimages of
// the needle's end bytes differ (one bit for a case fold), so a word
// passes where either preimage stands, and the candidate is compared
// through the table. grep -i searches through the ASCII fold and prints
// the line as it was; a grep that absorbed the tr before it (Compose)
// searches through tr's table and translates only the lines it prints.
// sed's literal form substitutes from the offset the scan found,
// instead of searching the line again.
//
// What fusion adds is only the composition: a chain like tr | grep | cut
// normally costs one goroutine and one chunk pipe per stage; the runtime's
// StageChain instead hands the chain's kernels, after Compose has merged
// the one pair whose work it can share, to the same loop a command runs
// its one kernel through: KernelChain pushes each pooled block through
// them back to back, in a single goroutine, with zero intermediate pipes
// — over a whole stream, or chunk by chunk for the framed protocol.

// Kernel is a composable streaming transform: the per-block form of a
// stateless command.
//
// Apply appends the transform of one input block to out and returns the
// grown slice; it never takes ownership of in. Blocks arrive in stream
// order but need not be newline-aligned — kernels that operate on lines
// carry partial lines across calls internally. Finish appends any
// end-of-stream output (final-line fixups, carried partial lines) and
// resets the kernel to its initial state, so one kernel value can
// process a sequence of independent streams: the framed round-robin
// protocol runs one stream per chunk. Status reports the exit status
// accumulated across every stream processed since the kernel was built
// (grep's no-match is an *ExitError); nil means 0.
type Kernel interface {
	Apply(out, in []byte) []byte
	Finish(out []byte) []byte
	Status() error
}

// kernelMakers maps builtin command names to kernel constructors, which
// their registry entries carry. A constructor returns false when this
// particular flag combination has no kernel form (the command then runs
// unfused).
var kernelMakers = map[string]KernelMaker{
	"cat":  newCatKernel,
	"tr":   newTrKernel,
	"grep": newGrepKernel,
	"cut":  newCutKernel,
	"sed":  newSedKernel,
	"rev":  newRevKernel,
}

// NewKernel builds the kernel for a command invocation, or reports
// false when the command (or this flag combination) has no kernel form.
// Kernel-capable invocations read standard input and write standard
// output only — file operands disqualify them.
func NewKernel(name string, args []string) (Kernel, bool) {
	mk, ok := kernelMakers[name]
	if !ok {
		return nil, false
	}
	return mk(args)
}

// runKernel is the data loop of every kernel-capable command: it opens
// the operands (standard input when there are none) and streams each
// reader through k as a one-kernel chain. Finish runs at every reader's
// end, not only the last: an unterminated final line of one file ends
// before the next file starts, exactly as if the command had run once
// per file and the outputs were concatenated. The result is the
// kernel's accumulated status.
func runKernel(ctx *Context, k Kernel, operands []string) error {
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	kc := KernelChain{Kernels: []Kernel{k}}
	for _, r := range readers {
		if err := kc.Stream(r, ctx.Stdout); err != nil {
			return err
		}
	}
	return k.Status()
}

// StageTime is one kernel stage's attribution: the time spent inside its
// kernel and the bytes that crossed it. BytesIn/BytesOut play the role
// the pipe meters played before fusion removed the pipes.
type StageTime struct {
	Name     string
	Active   time.Duration
	BytesIn  int64
	BytesOut int64
}

// KernelChain is the one loop that pushes blocks through kernels: a
// kernel-capable command's one kernel, a fused node's chain, a framed
// replica's. Each kernel reads the previous one's output; a pass-through
// slot (cat, or a tr that Compose handed to the grep after it) is skipped,
// so a block no kernel transforms moves on by ownership, uncopied. Meters,
// when set (one per kernel), are charged with each stage's time and bytes;
// only one goroutine may run a metered chain at a time.
type KernelChain struct {
	Kernels []Kernel
	Meters  []StageTime
}

// Stream pushes every block of r through the chain and hands what comes
// out to w by ownership, then cascades the kernels' end-of-stream output:
// each stage's Finish output flows through the stages after it, in order,
// before those stages finish themselves. It reports transport failures
// only; the chain's status is its last kernel's Status.
func (kc KernelChain) Stream(r io.Reader, w io.Writer) error {
	for {
		b, err := NextBlock(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := emitBlock(w, kc.push(0, b, false)); err != nil {
			return err
		}
	}
	var tail []byte // the first live stage's block: no block more than a lone kernel needs
	for i, k := range kc.Kernels {
		if passThrough(k) {
			continue
		}
		t := kc.push(i+1, kc.stage(i, nil, true), false)
		if tail == nil {
			tail = t
			continue
		}
		tail = append(tail, t...)
		PutBlock(t)
	}
	return emitBlock(w, tail)
}

// Chunk is the per-chunk form, for the framed protocol: it runs the chain
// over one chunk as an independent stream, Finish included, and returns
// the one output block the chunk becomes, owned by the caller — empty
// when nothing survives, the chunk itself when no kernel transforms it.
// The chunk is owned by the chain and given back with PutBlock as soon as
// a stage has replaced it, so its block is back in the pool, still warm,
// for the next stage's output.
func (kc KernelChain) Chunk(chunk []byte) []byte {
	return kc.push(0, chunk, true)
}

// push runs one owned block through the stages from from on and returns
// what the last one made of it; whole finishes each stage over it. Each
// block a stage has replaced goes back to the pool. An empty block goes
// no further: no kernel is handed empty input.
func (kc KernelChain) push(from int, cur []byte, whole bool) []byte {
	for i := from; i < len(kc.Kernels) && len(cur) > 0; i++ {
		if passThrough(kc.Kernels[i]) {
			continue
		}
		next := kc.stage(i, cur, whole)
		PutBlock(cur)
		cur = next
	}
	return cur
}

// stage runs kernel i over in into a fresh pool block — then Finish, when
// finish is set — charging its meter when the chain has meters.
func (kc KernelChain) stage(i int, in []byte, finish bool) []byte {
	var start time.Time
	if kc.Meters != nil {
		start = time.Now()
	}
	k, out := kc.Kernels[i], GetBlock()
	if len(in) > 0 {
		out = k.Apply(out, in)
	}
	if finish {
		out = k.Finish(out)
	}
	if kc.Meters != nil {
		m := &kc.Meters[i]
		m.Active += time.Since(start)
		m.BytesIn += int64(len(in))
		m.BytesOut += int64(len(out))
	}
	return out
}

// passThrough reports whether k is a no-op the loop routes blocks past.
func passThrough(k Kernel) bool {
	_, ok := k.(interface{ IsPassThrough() })
	return ok
}

// emitBlock hands an output block to w (WriteBlock), recycling an empty
// one: only a stage's own output block, or no block at all, is empty.
func emitBlock(w io.Writer, b []byte) error {
	if len(b) == 0 {
		PutBlock(b)
		return nil
	}
	return WriteBlock(w, b)
}

// stdinOnly reports whether operands name standard input exclusively
// ("-" or nothing).
func stdinOnly(operands []string) bool {
	for _, op := range operands {
		if op != "-" {
			return false
		}
	}
	return true
}

// lineSplitter carries partial lines across arbitrarily-chunked Apply
// calls, handing each complete line (newline stripped) to a callback.
// The final unterminated line surfaces at finish time, mirroring the
// blockScanner behaviour the command implementations share.
type lineSplitter struct {
	carry []byte
}

func (ls *lineSplitter) feed(in []byte, fn func(line []byte)) {
	in = ls.feedCarried(in, fn)
	for len(in) > 0 {
		i := bytes.IndexByte(in, '\n')
		if i < 0 {
			ls.carry = append(ls.carry, in...)
			return
		}
		fn(in[:i])
		in = in[i+1:]
	}
}

// feedCarried completes the carried partial line, if there is one, from
// the front of in, hands it to fn and returns what follows it: in from a
// line start on (nothing, when the line did not end in this block).
func (ls *lineSplitter) feedCarried(in []byte, fn func(line []byte)) []byte {
	if len(ls.carry) == 0 {
		return in
	}
	i := bytes.IndexByte(in, '\n')
	if i < 0 {
		ls.carry = append(ls.carry, in...)
		return nil
	}
	ls.carry = append(ls.carry, in[:i]...)
	fn(ls.carry)
	ls.carry = ls.carry[:0]
	return in[i+1:]
}

func (ls *lineSplitter) finish(fn func(line []byte)) {
	if len(ls.carry) > 0 {
		fn(ls.carry)
		ls.carry = ls.carry[:0]
	}
}

// lineKernel adapts a per-line append function into a Kernel. perLine
// appends the command's output for one input line (including any
// trailing newline) to out; it must not retain line.
type lineKernel struct {
	ls      lineSplitter
	perLine func(out, line []byte) []byte
	status  func() error
}

func (k *lineKernel) Apply(out, in []byte) []byte {
	k.ls.feed(in, func(line []byte) { out = k.perLine(out, line) })
	return out
}

func (k *lineKernel) Finish(out []byte) []byte {
	k.ls.finish(func(line []byte) { out = k.perLine(out, line) })
	return out
}

func (k *lineKernel) Status() error {
	if k.status == nil {
		return nil
	}
	return k.status()
}

// literalKernel is the block form of a per-line command that only has
// work to do on the lines containing one fixed string (lit: its needle is
// not empty and has no newline). Apply searches the block, not each line,
// for the needle and widens a hit to its line, which goes through hit
// with the hit's offset in it; the run of whole lines between two hits
// goes through rest in one piece. Either may be nil: nothing is printed.
// Partial lines are lineKernel's business: the carried line is completed
// and run through perLine, the body that is right for any line, before
// the block scan resumes — so hit and rest must print what perLine would
// have.
type literalKernel struct {
	lineKernel
	lit  literal
	hit  func(out, line []byte, at int) []byte
	rest func(out, lines []byte) []byte
	// absorb, when set, takes over a tr translation that runs right
	// before the kernel (Compose): it reports whether it did.
	absorb func(p *trProgram) bool
}

func (k *literalKernel) Apply(out, in []byte) []byte {
	in = k.ls.feedCarried(in, func(line []byte) { out = k.perLine(out, line) })
	// No hit can straddle the end of the last whole line: the needle has
	// no newline in it, and a table maps no other byte onto one. The
	// unterminated tail waits for its rest.
	end := bytes.LastIndexByte(in, '\n') + 1
	k.ls.carry = append(k.ls.carry, in[end:]...)
	in = in[:end]
	for len(in) > 0 {
		at := k.lit.index(in)
		if at < 0 {
			break
		}
		start := bytes.LastIndexByte(in[:at], '\n') + 1
		stop := at + bytes.IndexByte(in[at:], '\n')
		if k.rest != nil && start > 0 {
			out = k.rest(out, in[:start])
		}
		if k.hit != nil {
			out = k.hit(out, in[start:stop], at-start)
		}
		in = in[stop+1:]
	}
	if k.rest != nil && len(in) > 0 {
		out = k.rest(out, in)
	}
	return out
}

// Compose applies the kernel layer's one composition rule to a chain's
// kernel set, in place: a pure tr translation right before grep's
// literal kernel (no -v) is handed to that kernel, which then searches
// the untranslated block through tr's table and translates only the
// lines it prints; tr's slot gets the pass-through kernel. It applies
// when tr neither deletes nor squeezes, maps '\n' to itself and no other
// byte to '\n', and the needle's first and last bytes have at most two
// preimages each. Any other pair, and every kernel this package did not
// build, is left as it is.
func Compose(ks []Kernel) {
	for i := 0; i+1 < len(ks); i++ {
		t, ok := ks[i].(*trKernel)
		g, ok2 := ks[i+1].(*literalKernel)
		if ok && ok2 && g.absorb != nil && g.absorb(t.p) {
			ks[i] = identityKernel{}
		}
	}
}

// literal is the needle a literal kernel searches for, and, when table is
// set, the byte map the haystack is read through: hay holds the needle at
// j when table maps hay[j:j+n] onto it. The word-wide scan needs a single
// byte to compare each lane with; a needle end with two preimages under
// the table (w and W under a case fold) is compared with both OR'd
// together, after OR-ing each lane of the word with the bits in which
// they differ (mask), so the scan passes a superset of the starts and the
// table compare decides.
type literal struct {
	needle              []byte
	table               *[256]byte
	first, last         uint64 // the compare bytes of the needle's ends, in every lane
	firstMask, lastMask uint64 // the bits OR'd into every lane before the compare
	firstPre, lastPre   int    // the number of preimages of the needle's ends
}

// newLiteral prepares the search for needle through table (nil: the
// identity). The empty needle gets no scan state: only contains and
// equal are asked of it.
func newLiteral(needle []byte, table *[256]byte) literal {
	l := literal{needle: needle, table: table}
	if len(needle) == 0 {
		return l
	}
	end := func(c byte) (cmp, mask uint64, pre int) {
		if table == nil {
			return lowBytes * uint64(c), 0, 1
		}
		var b0 byte
		var diff byte
		for b := 0; b < 256; b++ {
			if table[b] != c {
				continue
			}
			if pre == 0 {
				b0 = byte(b)
			}
			diff |= byte(b) ^ b0
			pre++
		}
		if pre == 0 {
			b0 = c // nothing maps onto c: every candidate fails the compare
		}
		return lowBytes * uint64(b0|diff), lowBytes * uint64(diff), pre
	}
	l.first, l.firstMask, l.firstPre = end(needle[0])
	l.last, l.lastMask, l.lastPre = end(needle[len(needle)-1])
	return l
}

// index is bytes.Index(hay, needle), read through the table when there is
// one. A one-byte needle with no table is IndexByte's; every other one
// goes to literalCandidates, which tests eight start positions a step,
// and each candidate it reports is verified here, lowest first.
func (l *literal) index(hay []byte) int {
	n := len(l.needle)
	switch {
	case n == 1 && l.table == nil:
		return bytes.IndexByte(hay, l.needle[0])
	case n > len(hay):
		return -1
	}
	i := 0
	for {
		at, cand := literalCandidates(hay[i:], l.first, l.last, l.firstMask, l.lastMask, n-1)
		i += at
		if cand == 0 {
			break
		}
		for ; cand != 0; cand &= cand - 1 {
			j := i + bits.TrailingZeros64(cand)>>3
			if l.equal(hay[j : j+n]) {
				return j
			}
		}
		i += 8
	}
	// Fewer than n+15 bytes are left: too few for a loop of two steps.
	if l.table == nil {
		if j := bytes.Index(hay[i:], l.needle); j >= 0 {
			return i + j
		}
		return -1
	}
	for j := i; j+n <= len(hay); j++ {
		if l.equal(hay[j : j+n]) {
			return j
		}
	}
	return -1
}

// equal reports whether b, read through the table, is the needle.
func (l *literal) equal(b []byte) bool {
	if l.table == nil {
		return bytes.Equal(b, l.needle)
	}
	if len(b) != len(l.needle) {
		return false
	}
	for i, c := range b {
		if l.table[c] != l.needle[i] {
			return false
		}
	}
	return true
}

// contains reports whether line holds the needle; every line holds the
// empty one.
func (l *literal) contains(line []byte) bool {
	if l.table == nil {
		return bytes.Contains(line, l.needle)
	}
	return len(l.needle) == 0 || l.index(line) >= 0
}

// literalCandidates scans hay for the starts of a needle whose first
// byte, repeated in every lane, is first, and whose last byte, lastOff
// bytes on, is last. A step tests the eight starts of one word: each
// loaded word is OR'd with its end's mask (zero without a table), and x,
// the first word XOR first OR'd with the word lastOff on XOR last, has a
// zero byte exactly where both ends match, and the has-zero mask sets
// that byte's high bit. The mask is exact up to its lowest zero byte;
// above it a borrow can flag a byte that does not match, which the
// caller's compare throws out. Each loop takes two steps and branches
// once. It returns the offset of the first word with a candidate and its
// mask; or, with cand 0, the offset where fewer than lastOff+16 bytes are
// left. It calls nothing, so the loop's state stays in registers; the
// compare is the caller's.
func literalCandidates(hay []byte, first, last, firstMask, lastMask uint64, lastOff int) (at int, cand uint64) {
	heads, tails := hay[:len(hay)-lastOff], hay[lastOff:]
	for len(heads) >= 16 && len(tails) >= 16 {
		lo := ((binary.LittleEndian.Uint64(heads) | firstMask) ^ first) | ((binary.LittleEndian.Uint64(tails) | lastMask) ^ last)
		hi := ((binary.LittleEndian.Uint64(heads[8:]) | firstMask) ^ first) | ((binary.LittleEndian.Uint64(tails[8:]) | lastMask) ^ last)
		lo, hi = (lo-lowBytes)&^lo&highBits, (hi-lowBytes)&^hi&highBits
		if lo|hi != 0 {
			at = len(hay) - lastOff - len(heads)
			if lo == 0 {
				return at + 8, hi
			}
			return at, lo
		}
		heads, tails = heads[16:], tails[16:]
	}
	return len(hay) - lastOff - len(heads), 0
}

// identityKernel is cat with no flags: a pass-through. The kernel loop
// skips it, so it costs no copy at all.
type identityKernel struct{}

func (identityKernel) Apply(out, in []byte) []byte { return append(out, in...) }
func (identityKernel) Finish(out []byte) []byte    { return out }
func (identityKernel) Status() error               { return nil }

// IsPassThrough marks the kernel as a no-op for the kernel loop, which
// then routes blocks past it without the copy Apply would make.
func (identityKernel) IsPassThrough() {}

func newCatKernel(args []string) (Kernel, bool) {
	for _, a := range args {
		if a != "-" {
			return nil, false
		}
	}
	return identityKernel{}, true
}

// Compile-time interface checks.
var (
	_ Kernel = (*trKernel)(nil)
	_ Kernel = (*lineKernel)(nil)
	_ Kernel = (*literalKernel)(nil)
	_ Kernel = identityKernel{}
)
