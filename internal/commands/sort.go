package commands

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

func init() { register("sort", sortCmd) }

// sortConfig captures a sort invocation. The five global ordering flags
// (-n -r -f -d -b) act as the key when no -k is given, and a -k key with
// no ordering letters of its own inherits them, as in GNU sort.
type sortConfig struct {
	numeric    bool
	reverse    bool
	foldCase   bool
	dictionary bool
	blanks     bool // -b
	unique     bool
	stable     bool // -s
	merge      bool
	check      bool       // -c
	keys       []*sortKey // -k POS1[,POS2] specs, in order
	delim      byte       // -t; 0 means blank runs
	parallel   int        // --parallel=N; 0 = default
}

// sortKey is one -k F[.C][OPTS][,F[.C][OPTS]] spec: fields and characters
// count from 1, and the ordering letters are the key's own.
type sortKey struct {
	startField, startChar int // startChar 0: the field's first byte
	endField, endChar     int // endField 0: end of line; endChar 0: end of the field
	numeric               bool
	reverse               bool
	foldCase              bool
	dictionary            bool
	skipStart, skipEnd    bool // b on POS1 / POS2: skip the blanks a position lands on
}

// ordered reports whether the key carries an ordering option other than
// -r (GNU's !default_key_compare): a key that does is compared by it.
func (k *sortKey) ordered() bool {
	return k.numeric || k.foldCase || k.dictionary || k.skipStart || k.skipEnd
}

// parseSort reads a sort argv: its configuration, its operands and the
// -o file. The errors are sort's usage messages.
func parseSort(args []string) (cfg sortConfig, operands []string, outFile string, err error) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		grab := func(attached string) (string, error) {
			if attached != "" {
				return attached, nil
			}
			i++
			if i >= len(args) {
				return "", fmt.Errorf("option %q requires an argument", a)
			}
			return args[i], nil
		}
		switch {
		case a == "-" || !strings.HasPrefix(a, "-"):
			operands = append(operands, a)
		case strings.HasPrefix(a, "--parallel="):
			n, err := strconv.Atoi(a[len("--parallel="):])
			if err != nil || n < 1 {
				return cfg, nil, "", fmt.Errorf("invalid --parallel value %q", a)
			}
			cfg.parallel = n
		case strings.HasPrefix(a, "-k"):
			v, err := grab(a[2:])
			if err != nil {
				return cfg, nil, "", err
			}
			k, err := parseSortKey(v)
			if err != nil {
				return cfg, nil, "", fmt.Errorf("invalid key %q: %v", v, err)
			}
			cfg.keys = append(cfg.keys, k)
		case strings.HasPrefix(a, "-t"):
			v, err := grab(a[2:])
			if err != nil {
				return cfg, nil, "", err
			}
			if len(v) != 1 {
				return cfg, nil, "", errors.New("separator must be one character")
			}
			cfg.delim = v[0]
		case strings.HasPrefix(a, "-o"):
			if outFile, err = grab(a[2:]); err != nil {
				return cfg, nil, "", err
			}
		default:
			for _, c := range a[1:] {
				switch c {
				case 'n':
					cfg.numeric = true
				case 'r':
					cfg.reverse = true
				case 'u':
					cfg.unique = true
				case 'f':
					cfg.foldCase = true
				case 'd':
					cfg.dictionary = true
				case 'b':
					cfg.blanks = true
				case 's':
					cfg.stable = true
				case 'm':
					cfg.merge = true
				case 'c':
					cfg.check = true
				default:
					return cfg, nil, "", fmt.Errorf("unsupported flag -%c", c)
				}
			}
		}
	}
	return cfg, operands, outFile, nil
}

// sortCmd implements sort: flags -n, -r, -u, -f, -d, -b, -s, -m, -c,
// -k POS1[,POS2] (with per-key b/d/f/n/r), -t SEP, -o FILE, --parallel=N.
// Comparisons are GNU sort's under LC_ALL=C.
func sortCmd(ctx *Context) error {
	cfg, operands, outFile, err := parseSort(ctx.Args)
	if err != nil {
		return ctx.Errorf("%v", err)
	}

	out := ctx.Stdout
	if outFile != "" {
		f, err := ctx.FS.Create(outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	lw := NewLineWriter(out)
	defer lw.Flush()
	ord := cfg.order()

	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()

	if cfg.check {
		// Disorder is a line above its successor; under -u an equal
		// neighbour is disorder too.
		var prev []byte
		var prevKey uint64
		first := true
		sorted := true
		err = EachLineReaders(readers, func(line []byte) error {
			key := ord.decorate(line)
			if !first {
				if c := ord.compare(prevKey, prev, key, line); c > 0 || cfg.unique && c == 0 {
					sorted = false
					return io.EOF
				}
			}
			prev, prevKey = append(prev[:0], line...), key
			first = false
			return nil
		})
		if err != nil && err != io.EOF {
			return err
		}
		if !sorted {
			return &ExitError{Code: 1}
		}
		return nil
	}

	// The limit is the planner's promise that only the first limit lines
	// are read. -u's limit-th line can lie arbitrarily deep in the sorted
	// index and -o's file is read whole, so they print every line.
	limit := ctx.Limit
	if limit <= 0 || cfg.unique || outFile != "" {
		limit = math.MaxInt
	}

	if cfg.merge {
		// -m: merge already-sorted inputs (the heart of PaSh's sort
		// aggregator).
		if err := mergeSorted(readers, lw, ord, cfg.unique, limit); err != nil {
			return err
		}
		return lw.Flush()
	}

	var arena []byte
	for _, r := range readers {
		if arena, err = readArena(r, arena); err != nil {
			return err
		}
	}
	recs := sortRecs(ord.index(arena), arena, ord, cfg.parallel, limit)

	// -u prints the first line of each run of equal lines. The sorted
	// index's keys are scratch, so equality is read from the lines.
	var prev []byte
	for i, r := range recs {
		line := arena[r.off : r.off+r.len]
		if cfg.unique && i > 0 && ord.equal(prev, line) {
			continue
		}
		// Arena lines keep their newline: one append per line.
		if _, err := lw.Write(arena[r.off : r.off+r.len+1]); err != nil {
			return err
		}
		prev = line
	}
	return lw.Flush()
}

// sortRec is one line of the sort index: its decorated key and its place
// in the arena. It holds no pointer, so the garbage collector never scans
// the index and sorting moves three words per line, whatever the line's
// length.
type sortRec struct {
	key      uint64
	off, len int
}

// lineOrder is a sort invocation's ordering, compiled once from its
// flags: GNU sort's compare() under LC_ALL=C. Without a key the order is
// bytewise over whole lines. With one (-k, or a global -n/-f/-d/-b)
// lines are ordered by the key, ties by each later -k key in turn and,
// unless -s or -u, the remaining ties fall to a last resort, the
// bytewise whole-line order; -r reverses that last resort too, but not
// the input order -s and -u keep.
//
// Each line is decorated once with a uint64 whose integer order agrees
// with the key comparison — the big-endian first 8 bytes of the key
// (folded and filtered for -f/-d), or an order-preserving image of the
// number for -n — so most comparisons never touch the line. Equal
// decorations fall through to tie. A bytewise order's decoration is the
// line's first 8 bytes, which the multikey quicksort overwrites with
// later ones as it goes.
type lineOrder struct {
	key        *sortKey     // the first key, with global options inherited; nil: bytewise
	then       []*lineOrder // the later keys, each with its own key and keySign
	delim      byte
	keySign    int  // -1 when the key comparison is reversed; else 1
	sign       int  // -1 for -r, which reverses the whole-line comparison; else 1
	lastResort bool // key ties fall to the whole line (neither -s nor -u)
}

// order builds the line ordering for the configuration.
func (cfg *sortConfig) order() *lineOrder {
	global := sortKey{
		startField: 1,
		numeric:    cfg.numeric,
		reverse:    cfg.reverse,
		foldCase:   cfg.foldCase,
		dictionary: cfg.dictionary,
		skipStart:  cfg.blanks,
		skipEnd:    cfg.blanks,
	}
	o := &lineOrder{delim: cfg.delim, sign: 1, lastResort: !cfg.stable && !cfg.unique}
	if cfg.reverse {
		o.sign = -1
	}
	o.keySign = o.sign
	if len(cfg.keys) == 0 && global.ordered() {
		o.key = &global
	}
	for i, k := range cfg.keys {
		if !k.ordered() && !k.reverse {
			inherited := global
			inherited.startField, inherited.startChar = k.startField, k.startChar
			inherited.endField, inherited.endChar = k.endField, k.endChar
			k = &inherited
		}
		if i == 0 {
			o.key = k
		} else {
			o.then = append(o.then, &lineOrder{key: k, delim: cfg.delim, keySign: keySign(k)})
		}
	}
	if o.key != nil {
		o.keySign = keySign(o.key)
	}
	return o
}

// keySign is -1 for a reversed key, else 1.
func keySign(k *sortKey) int {
	if k.reverse {
		return -1
	}
	return 1
}

// total reports whether lines that compare equal are byte-identical, in
// which case neither stability nor the choice of -u's survivor is
// observable: every order but a key without its last resort.
func (o *lineOrder) total() bool { return o.key == nil || o.lastResort }

// decorate computes a line's sort key.
func (o *lineOrder) decorate(line []byte) uint64 {
	if o.key == nil {
		return prefixWord(line)
	}
	k := o.keyOf(line)
	switch {
	case o.key.numeric:
		if o.key.dictionary {
			k = dictBytes(k)
		}
		return numImage(k)
	case o.key.foldCase || o.key.dictionary:
		var p [8]byte
		n := 0
		for _, c := range k {
			if o.key.dictionary && !dictByte(c) {
				continue
			}
			if o.key.foldCase {
				c = upperByte(c)
			}
			p[n] = c
			if n++; n == len(p) {
				break
			}
		}
		return binary.BigEndian.Uint64(p[:])
	}
	return prefixWord(k)
}

// prefixWord is the big-endian first 8 bytes of b, zero padded: its
// integer order agrees with bytes.Compare wherever two words differ.
func prefixWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var p [8]byte
	copy(p[:], b)
	return binary.BigEndian.Uint64(p[:])
}

// compare is the three-way comparison of two decorated lines.
func (o *lineOrder) compare(ak uint64, a []byte, bk uint64, b []byte) int {
	switch {
	case ak != bk:
		return o.byKey(ak, bk)
	case o.key != nil && o.key.numeric && numExact(ak):
		return o.last(a, b) // equal numbers
	}
	return o.tie(a, b)
}

// byKey orders two lines whose decorations differ, without reading
// either. It is small enough to inline into the sort's comparison.
func (o *lineOrder) byKey(ak, bk uint64) int {
	if ak < bk {
		return -o.keySign
	}
	return o.keySign
}

// tie orders two lines without their decorations: by the key, if there
// is one, and then as last orders them.
func (o *lineOrder) tie(a, b []byte) int {
	if o.key != nil {
		if c := o.keySign * o.keyCompare(a, b); c != 0 {
			return c
		}
	}
	return o.last(a, b)
}

// last orders two lines whose first keys are equal: by each later key
// in turn, then bytewise, which -r reverses — the whole order without a
// key, the last resort with one — unless -s or -u keep the lines as
// equal.
func (o *lineOrder) last(a, b []byte) int {
	for _, t := range o.then {
		if c := t.keySign * t.keyCompare(a, b); c != 0 {
			return c
		}
	}
	if o.key != nil && !o.lastResort {
		return 0
	}
	return o.sign * bytes.Compare(a, b)
}

// equal reports whether two lines compare equal, reading only the lines.
func (o *lineOrder) equal(a, b []byte) bool {
	if o.key == nil {
		return bytes.Equal(a, b)
	}
	return o.tie(a, b) == 0
}

// index builds the sort index over an arena of newline-terminated lines.
func (o *lineOrder) index(arena []byte) []sortRec {
	return o.appendIndex(make([]sortRec, 0, bytes.Count(arena, newline)), arena, 0)
}

// appendIndex appends the records of the lines of arena[from:] to recs.
func (o *lineOrder) appendIndex(recs []sortRec, arena []byte, from int) []sortRec {
	for off := from; off < len(arena); {
		n := bytes.IndexByte(arena[off:], '\n')
		recs = append(recs, o.rec(arena, off, n))
		off += n + 1
	}
	return recs
}

// rec is the record of the n-byte line at arena[off:].
func (o *lineOrder) rec(arena []byte, off, n int) sortRec {
	if o.key == nil {
		return sortRec{key: loadWord(arena, off, n), off: off, len: n}
	}
	return sortRec{key: o.decorate(arena[off : off+n]), off: off, len: n}
}

// sortRecs sorts the index and returns its first limit records. With
// workers > 1 (GNU sort's --parallel) the index is cut into runs sorted
// concurrently by the same kernel and merged through the loser tree,
// which decorates each run's head afresh: the kernel leaves keys as
// scratch.
func sortRecs(recs []sortRec, arena []byte, o *lineOrder, workers, limit int) []sortRec {
	if workers > runtime.NumCPU()*2 {
		workers = runtime.NumCPU() * 2
	}
	limit = min(limit, len(recs))
	if workers < 2 || len(recs) < 2*workers {
		o.sortRun(recs, arena, limit)
		return recs[:limit]
	}
	chunk := (len(recs) + workers - 1) / workers
	var wg sync.WaitGroup
	var runs [][]sortRec
	for lo := 0; lo < len(recs); lo += chunk {
		run := recs[lo:min(lo+chunk, len(recs))]
		runs = append(runs, run)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.sortRun(run, arena, limit)
		}()
	}
	wg.Wait()

	// No run gives the merge more than limit records, so each settles
	// only its first limit.
	out := make([]sortRec, 0, limit)
	lt := newLoserTree(len(runs), o)
	load := func(i int) {
		lt.live[i] = len(runs[i]) > 0
		if lt.live[i] {
			r := runs[i][0]
			lt.lines[i] = arena[r.off : r.off+r.len]
			lt.keys[i] = o.decorate(lt.lines[i])
		}
	}
	for i := range runs {
		load(i)
	}
	lt.build()
	for len(out) < limit {
		w := lt.winner()
		out = append(out, runs[w][0])
		runs[w] = runs[w][1:]
		load(w)
		lt.replay(w)
	}
	return out
}

// sortRun sorts one run of the index far enough that its first limit
// records are the run's first limit lines in order; the rest are left
// in some order. A range that exhausts a quicksort's depth budget, twice
// the bit length of the run, has partitioned badly and goes to the
// comparator sort.
//
// A bytewise order is the multikey quicksort, reversed for -r, which
// for a total order is exactly the reversed order. A keyed order is a
// quicksort on the decorations — complemented for a reversed key, so
// that ascending integers are the key order — that settles each group
// of equal decorations by what the group's lines still differ in: a
// number the decoration holds whole (numExact), with no later key to
// consult, ties to the last resort alone, so the group is the bytewise
// sort of its lines, or their input order under -s or -u; any other
// group goes to the comparator sort.
func (o *lineOrder) sortRun(recs []sortRec, arena []byte, limit int) {
	if o.key == nil {
		settleLines(recs, arena, o.sign < 0, 0, limit)
		return
	}
	if o.keySign < 0 {
		complementKeys(recs)
	}
	o.keySort(recs, arena, depthBudget(recs), 0, limit)
}

// depthBudget is the depth budget of either quicksort over recs.
func depthBudget(recs []sortRec) int { return 2 * bits.Len(uint(len(recs))) }

// keySort sorts recs, keyed by their decorations (complemented for a
// reversed key), far enough to settle positions [lo, hi). Ranges that
// lie outside it are not partitioned further: a partial quicksort
// (Martínez, 2004), which puts the first K of n lines in order in
// O(n + K log K) expected time.
func (o *lineOrder) keySort(recs []sortRec, arena []byte, budget, lo, hi int) {
	for len(recs) > 1 && lo < len(recs) && hi > 0 {
		if budget == 0 || len(recs) <= mkqSmall {
			o.tieSort(recs, arena)
			return
		}
		lt, gt := partition3(recs, pivotKey(recs))
		o.keySort(recs[:lt], arena, budget-1, lo, hi)
		o.settleTies(recs[lt:gt], arena, lo-lt, hi-lt)
		recs, lo, hi, budget = recs[gt:], lo-gt, hi-gt, budget-1
	}
}

// settleTies sorts a group of lines with equal decorations, settling
// positions [lo, hi) of it.
func (o *lineOrder) settleTies(recs []sortRec, arena []byte, lo, hi int) {
	switch {
	case len(recs) < 2 || lo >= len(recs) || hi <= 0:
	case !o.key.numeric || len(o.then) > 0 || !numExact(recs[0].key):
		o.tieSort(recs, arena)
	case o.lastResort:
		for i := range recs {
			r := &recs[i]
			r.key = loadWord(arena, r.off, r.len)
		}
		settleLines(recs, arena, o.sign < 0, lo, hi)
	default:
		slices.SortFunc(recs, func(x, y sortRec) int { return cmp.Compare(x.off, y.off) })
	}
}

// tieSort hands a range of keySort's to the comparator sort, first
// restoring its decorations.
func (o *lineOrder) tieSort(recs []sortRec, arena []byte) {
	if o.keySign < 0 {
		complementKeys(recs)
	}
	o.cmpSort(recs, arena)
}

func complementKeys(recs []sortRec) {
	for i := range recs {
		recs[i].key = ^recs[i].key
	}
}

// settleLines sorts recs bytewise by whole line, descending when
// reverse, settling positions [lo, hi); every key must be its line's
// first word. Reversed, those are positions [n-hi, n-lo) of the
// ascending order, which is reversed at the end.
func settleLines(recs []sortRec, arena []byte, reverse bool, lo, hi int) {
	if reverse {
		lo, hi = len(recs)-hi, len(recs)-lo
	}
	mkqsort(recs, arena, 0, depthBudget(recs), lo, hi)
	if reverse {
		slices.Reverse(recs)
	}
}

// cmpSort is the comparator sort, the unstable pattern-defeating
// quicksort. Lines that compare equal keep input order (their arena
// order): under -s or -u that is the order GNU sort keeps, and
// otherwise they are byte-identical and no one can tell. Every key
// must be the line's decoration under o.
func (o *lineOrder) cmpSort(recs []sortRec, arena []byte) {
	slices.SortFunc(recs, func(x, y sortRec) int {
		if x.key != y.key { // the common case, decided in this frame
			return o.byKey(x.key, y.key)
		}
		if c := o.compare(x.key, arena[x.off:x.off+x.len], y.key, arena[y.off:y.off+y.len]); c != 0 {
			return c
		}
		return cmp.Compare(x.off, y.off)
	})
}

// ascending is the plain bytewise order, the multikey quicksort's
// fallback.
var ascending = &lineOrder{sign: 1, keySign: 1}

// mkqSmall is the group size at and below which either quicksort
// finishes with an insertion sort or the comparator sort.
const mkqSmall = 16

// mkqsort sorts recs bytewise by whole line, far enough to settle
// positions [lo, hi): a multikey quicksort (Bentley & Sedgewick, SODA
// '97) over 8-byte words instead of bytes, which leaves ranges outside
// [lo, hi) unpartitioned. On entry every key is its line's word d —
// bytes [8d, 8d+8), zero padded — and all lines agree on their first 8d
// bytes; on return the keys are scratch. Each pass splits three ways on
// the key. The < and > groups recurse at the same depth, each spending
// one unit of budget; the = group moves on to word d+1 in this frame, so
// a long shared prefix costs a pass per word but no stack. A group that
// runs out of budget has partitioned badly, and goes to the comparator
// sort.
func mkqsort(recs []sortRec, arena []byte, d, budget, lo, hi int) {
	for len(recs) > 1 && lo < len(recs) && hi > 0 {
		switch {
		case len(recs) <= mkqSmall:
			insertionSort(recs, arena, 8*d)
			return
		case budget == 0:
			ascending.cmpSort(recs, arena)
			return
		}
		p := pivotKey(recs)
		lt, gt := partition3(recs, p)
		mkqsort(recs[:lt], arena, d, budget-1, lo, hi)
		mkqsort(recs[gt:], arena, d, budget-1, lo-gt, hi-gt)
		recs, lo, hi = recs[lt:gt], lo-lt, hi-lt

		// Lines that end inside word d come first, shortest first: each
		// is a prefix of every longer line of the group, and equal
		// lengths are equal lines. A line can end before the word does
		// only where p's low bytes are zero padding, so there is one
		// pass per such byte, plus one.
		end := 8 * (d + 1)
		n := 0
		for l := end - bits.TrailingZeros64(p)/8; l <= end; l++ {
			for i := n; i < len(recs); i++ {
				if recs[i].len == l {
					recs[n], recs[i] = recs[i], recs[n]
					n++
				}
			}
		}
		recs, lo, hi = recs[n:], lo-n, hi-n
		if lo >= len(recs) || hi <= 0 {
			return
		}
		for i := range recs {
			r := &recs[i]
			r.key = loadWord(arena, r.off+end, r.len-end)
		}
		d++
	}
}

// partition3 splits recs three ways around the key p: keys below it
// come to recs[:lt], keys equal to it to recs[lt:gt], keys above it to
// recs[gt:].
func partition3(recs []sortRec, p uint64) (lt, gt int) {
	lt, gt = 0, len(recs)
	for i := 0; i < gt; {
		switch k := recs[i].key; {
		case k < p:
			recs[lt], recs[i] = recs[i], recs[lt]
			lt++
			i++
		case k > p:
			gt--
			recs[i], recs[gt] = recs[gt], recs[i]
		default:
			i++
		}
	}
	return lt, gt
}

// pivotKey picks a partitioning key: the median of three, or Tukey's
// ninther for large groups, so sorted, reversed and organ-pipe inputs
// split evenly.
func pivotKey(recs []sortRec) uint64 {
	n := len(recs)
	med := func(i, j, k int) uint64 { return median3(recs[i].key, recs[j].key, recs[k].key) }
	if n < 128 {
		return med(0, n/2, n-1)
	}
	s := n / 8
	return median3(med(0, s, 2*s), med(n/2-s, n/2, n/2+s), med(n-1-2*s, n-1-s, n-1))
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// insertionSort finishes a small group whose lines agree on their first
// at bytes and whose keys are the next word.
func insertionSort(recs []sortRec, arena []byte, at int) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0; j-- {
			x, y := recs[j], recs[j-1]
			if x.key > y.key || x.key == y.key &&
				bytes.Compare(arena[x.off+at:x.off+x.len], arena[y.off+at:y.off+y.len]) >= 0 {
				break
			}
			recs[j], recs[j-1] = y, x
		}
	}
}

// loadWord is the big-endian word of the n bytes at arena[off:], zero
// padded past them. A short tail is read as a whole word and masked when
// the arena has the room, which it does for all but its last line.
func loadWord(arena []byte, off, n int) uint64 {
	switch {
	case n >= 8:
		return binary.BigEndian.Uint64(arena[off:])
	case off+8 <= len(arena):
		return binary.BigEndian.Uint64(arena[off:]) & ^(^uint64(0) >> (8 * n))
	}
	return prefixWord(arena[off : off+n])
}

// loserTree is a tournament tree for k-way merging: each internal node
// remembers the loser of the match played there, so replacing the
// winner's line replays a single leaf-to-root path of ⌈log2 k⌉
// comparisons — roughly half a binary heap's sift cost, with perfectly
// predictable memory traffic. It is the engine behind sort -m and the
// tree aggregation stages (internal/agg), where k-way merges dominate
// the critical path at high widths.
//
// Ties break by source index, preserving the stability contract the
// aggregation transformation relies on (equal lines surface in input
// order).
type loserTree struct {
	ord   *lineOrder
	k     int
	tree  []int    // tree[0] = current winner; tree[1:] = losers by node
	keys  []uint64 // current head line's decoration per source
	lines [][]byte // current head line per source (valid when live)
	live  []bool
}

func newLoserTree(k int, ord *lineOrder) *loserTree {
	return &loserTree{
		ord:   ord,
		k:     k,
		tree:  make([]int, k),
		keys:  make([]uint64, k),
		lines: make([][]byte, k),
		live:  make([]bool, k),
	}
}

// build plays the initial tournament. Callers must have populated
// keys/lines/live for every source first.
func (lt *loserTree) build() {
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for s := 0; s < lt.k; s++ {
		lt.replay(s)
	}
}

// replay re-runs source s's matches from its leaf to the root,
// exchanging winner and stored loser at each node.
func (lt *loserTree) replay(s int) {
	w := s
	for t := (s + lt.k) / 2; t > 0; t /= 2 {
		if lt.beats(lt.tree[t], w) {
			lt.tree[t], w = w, lt.tree[t]
		}
	}
	lt.tree[0] = w
}

// winner returns the source holding the smallest current line.
func (lt *loserTree) winner() int { return lt.tree[0] }

// beats reports whether source a's current line wins against source b's.
// The -1 sentinel (empty slot during build) always wins so real sources
// settle as losers along their path; exhausted sources always lose.
func (lt *loserTree) beats(a, b int) bool {
	if a == -1 {
		return true
	}
	if b == -1 {
		return false
	}
	if !lt.live[a] {
		return false
	}
	if !lt.live[b] {
		return true
	}
	if c := lt.ord.compare(lt.keys[a], lt.lines[a], lt.keys[b], lt.lines[b]); c != 0 {
		return c < 0
	}
	return a < b // stability across sources
}

// mergeSorted streams a k-way merge of already-sorted line readers into
// lw and stops after limit lines; with unique set it prints the first of
// each run of equal lines.
func mergeSorted(readers []io.Reader, lw *LineWriter, ord *lineOrder, unique bool, limit int) error {
	// prev outlives its source's next pull, so -u keeps a copy.
	var prev []byte
	var prevKey uint64
	written := 0
	return mergeRuns(readers, ord, nil, func(_ int, line []byte, key uint64) (bool, error) {
		if unique && written > 0 && ord.compare(prevKey, prev, key, line) == 0 {
			return true, nil
		}
		if err := lw.WriteLine(line); err != nil {
			return false, err
		}
		written++
		if unique {
			prev, prevKey = append(prev[:0], line...), key
		}
		return written < limit, nil
	})
}

// mergeRuns k-way merges already-sorted line readers under ord,
// selecting with a loser tree, and hands visit each line in merged order
// with its source and decoration, until visit reports false. cut, when
// set, gives the part of source src's raw line that the order compares
// (sort -m compares the whole line). A source's head line stays where
// its scanner found it — inside the source's current block — until visit
// has seen it and the merge pulls that source again, so no line is
// copied on the way in.
func mergeRuns(readers []io.Reader, ord *lineOrder, cut func(src int, raw []byte) ([]byte, error), visit func(src int, line []byte, key uint64) (bool, error)) error {
	k := len(readers)
	if k == 0 {
		return nil
	}
	iters := make([]*LineIter, k)
	for i, r := range readers {
		iters[i] = NewLineIter(r)
	}
	lt := newLoserTree(k, ord)
	live := 0
	pull := func(i int) error {
		line, ok := iters[i].Next()
		lt.live[i] = ok
		if !ok {
			lt.lines[i] = nil
			live--
			return iters[i].Err()
		}
		if cut != nil {
			var err error
			if line, err = cut(i, line); err != nil {
				return err
			}
		}
		lt.keys[i], lt.lines[i] = ord.decorate(line), line
		return nil
	}
	for i := 0; i < k; i++ {
		live++
		if err := pull(i); err != nil {
			return err
		}
	}
	lt.build()
	for live > 0 {
		w := lt.winner()
		if more, err := visit(w, lt.lines[w], lt.keys[w]); !more || err != nil {
			return err
		}
		if err := pull(w); err != nil {
			return err
		}
		lt.replay(w)
	}
	return nil
}

// parseSortKey parses a -k spec, F[.C][OPTS][,F[.C][OPTS]], as GNU sort
// does: a field or a start character of 0 is an error, an end character
// of 0 means the end of the field, and OPTS are letters of bdfnr (b
// applies to the position it follows, the rest to the key).
func parseSortKey(spec string) (*sortKey, error) {
	k := &sortKey{}
	pos := func(s string, end bool) (field, char int, rest string, err error) {
		num := func() (int, error) {
			i := 0
			for i < len(s) && s[i] >= '0' && s[i] <= '9' {
				i++
			}
			n, err := strconv.Atoi(s[:i])
			s = s[i:]
			return n, err
		}
		if field, err = num(); err != nil {
			return 0, 0, "", err
		}
		if field == 0 {
			return 0, 0, "", errors.New("field number is zero")
		}
		if strings.HasPrefix(s, ".") {
			s = s[1:]
			if char, err = num(); err != nil {
				return 0, 0, "", err
			}
			if char == 0 && !end {
				return 0, 0, "", errors.New("character offset is zero")
			}
		}
		for ; s != "" && s[0] != ','; s = s[1:] {
			switch s[0] {
			case 'b':
				if end {
					k.skipEnd = true
				} else {
					k.skipStart = true
				}
			case 'd':
				k.dictionary = true
			case 'f':
				k.foldCase = true
			case 'n':
				k.numeric = true
			case 'r':
				k.reverse = true
			default:
				return 0, 0, "", errors.New("unsupported key option " + strconv.QuoteRune(rune(s[0])))
			}
		}
		return field, char, s, nil
	}
	var err error
	var rest string
	if k.startField, k.startChar, rest, err = pos(spec, false); err != nil {
		return nil, err
	}
	if rest != "" {
		if k.endField, k.endChar, rest, err = pos(rest[1:], true); err != nil {
			return nil, err
		}
		if rest != "" {
			return nil, errors.New("stray character in field spec")
		}
	}
	return k, nil
}

// keyOf returns the part of a line the key compares (GNU's begfield and
// limfield). Under -t a field ends at the separator; otherwise a field
// is a run of blanks and the non-blanks after it, so a key that does not
// skip blanks starts with the ones in front of its field.
func (o *lineOrder) keyOf(line []byte) []byte {
	k := o.key
	beg := o.fieldStart(line, k.startField-1)
	if k.skipStart {
		beg = skipBlanks(line, beg)
	}
	beg = min(len(line), beg+max(k.startChar-1, 0))
	end := len(line)
	switch {
	case k.endField == 0:
	case k.endChar == 0:
		end = o.fieldStart(line, k.endField-1)
		if o.delim != 0 {
			if i := bytes.IndexByte(line[end:], o.delim); i >= 0 {
				end += i
			} else {
				end = len(line)
			}
		} else {
			end = skipNonBlanks(line, skipBlanks(line, end))
		}
	default:
		end = o.fieldStart(line, k.endField-1)
		if k.skipEnd {
			end = skipBlanks(line, end)
		}
		end = min(len(line), end+k.endChar)
	}
	return line[beg:max(beg, end)]
}

// fieldStart is the offset of field n (from 0), or the line's length
// when the line has fewer fields.
func (o *lineOrder) fieldStart(line []byte, n int) int {
	i := 0
	for ; n > 0 && i < len(line); n-- {
		if o.delim == 0 {
			i = skipNonBlanks(line, skipBlanks(line, i))
			continue
		}
		j := bytes.IndexByte(line[i:], o.delim)
		if j < 0 {
			return len(line)
		}
		i += j + 1
	}
	return i
}

func skipBlanks(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	return i
}

func skipNonBlanks(line []byte, i int) int {
	for i < len(line) && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	return i
}

// keyCompare compares the keys of two lines, before any reversal.
func (o *lineOrder) keyCompare(a, b []byte) int {
	k := o.key
	ka, kb := o.keyOf(a), o.keyOf(b)
	switch {
	case k.numeric:
		if k.dictionary {
			ka, kb = dictBytes(ka), dictBytes(kb)
		}
		return numCompare(ka, kb)
	case k.foldCase || k.dictionary:
		return compareText(ka, kb, k.foldCase, k.dictionary)
	}
	return bytes.Compare(ka, kb)
}

// compareText compares a and b byte by byte, skipping what -d ignores and
// folding what -f folds: C-locale toupper, ASCII letters only.
func compareText(a, b []byte, fold, dict bool) int {
	i, j := 0, 0
	for {
		if dict {
			for i < len(a) && !dictByte(a[i]) {
				i++
			}
			for j < len(b) && !dictByte(b[j]) {
				j++
			}
		}
		if i == len(a) || j == len(b) {
			break
		}
		ca, cb := a[i], b[j]
		if fold {
			ca, cb = upperByte(ca), upperByte(cb)
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		i++
		j++
	}
	switch {
	case i < len(a):
		return 1
	case j < len(b):
		return -1
	}
	return 0
}

func upperByte(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// dictByte reports whether -d keeps c: blanks and alphanumerics.
func dictByte(c byte) bool {
	return c == ' ' || c == '\t' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func dictBytes(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for _, c := range s {
		if dictByte(c) {
			out = append(out, c)
		}
	}
	return out
}

// numParts reads sort -n's number at the start of s, as GNU's strnumcmp
// does under LC_ALL=C: leading blanks, an optional '-', digits, an
// optional '.' and more digits; no '+', no exponent, no thousands
// separator. It returns the integer digits without leading zeros and
// the fraction digits without trailing zeros. A number without digits,
// or with only zeros, is zero and not negative.
func numParts(s []byte) (neg bool, whole, frac []byte) {
	i := skipBlanks(s, 0)
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	for i < len(s) && s[i] == '0' {
		i++
	}
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	whole = s[start:i]
	if i < len(s) && s[i] == '.' {
		i++
		start = i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		frac = bytes.TrimRight(s[start:i], "0")
	}
	if len(whole) == 0 && len(frac) == 0 {
		neg = false
	}
	return neg, whole, frac
}

// numCompare is sort -n's comparison: exact, at any length.
func numCompare(a, b []byte) int {
	an, aw, af := numParts(a)
	bn, bw, bf := numParts(b)
	if an != bn {
		if an {
			return -1
		}
		return 1
	}
	c := len(aw) - len(bw)
	if c == 0 {
		if c = bytes.Compare(aw, bw); c == 0 {
			c = bytes.Compare(af, bf)
		}
	}
	if an {
		c = -c
	}
	return c
}

// numImage is an order-preserving image of sort -n's number: the sign
// bit, then the integer part's digit count (8 bits, saturating), then
// the first 13 digits at 4 bits each, and last a bit set when digits are
// left over, all complemented for a negative number. Numbers that agree
// that far share an image and are told apart by numCompare, unless the
// image holds them whole (numExact). It reads the number as numParts
// does, in one pass: a fraction's zero digits add nothing to the image,
// so only a nonzero one past the thirteenth is left over.
func numImage(s []byte) uint64 {
	i := skipBlanks(s, 0)
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	for i < len(s) && s[i] == '0' {
		i++
	}
	var digits uint64
	n, whole, nonzero := 0, 0, false
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		if n < 13 {
			digits |= uint64(s[i]-'0') << (51 - 4*n)
			n++
		} else {
			digits |= 1
		}
		whole++
	}
	if i < len(s) && s[i] == '.' {
		for i++; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			d := uint64(s[i] - '0')
			switch {
			case n < 13:
				digits |= d << (51 - 4*n)
				n++
			case d != 0:
				digits |= 1
			}
			nonzero = nonzero || d != 0
		}
	}
	img := ^uint64(0)
	if whole < 255 {
		img = uint64(1)<<63 | uint64(whole)<<55 | digits
	}
	if neg && (whole > 0 || nonzero) {
		img = ^img
	}
	return img
}

// numExact reports whether a numImage holds its number whole, so that
// an equal image is an equal number. A left-over digit makes a number
// larger in magnitude than its 13-digit prefix, so the flag orders
// correctly on either side of zero.
func numExact(img uint64) bool { return (img^img>>63)&1 == 1 }
