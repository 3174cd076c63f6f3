package commands

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// This file is `sort FLAGS | uniq -c` as one pure command, for a sort
// whose order is total: its map counts lines in a table and sorts only
// the distinct ones, and its aggregate merges count streams and sums
// the counts of equal lines. The planner rewrites the pair into it
// (core's count-pair rule); it is not a builtin a script names. Under a
// total order two lines compare equal only when they are byte-equal
// (lineOrder.total), so the sorted lines' runs of equals are exactly
// the runs uniq -c counts, and counting by exact bytes before sorting
// prints the same bytes as sorting first.

// SortCountable reports whether sort's argv is one the count stage
// takes: sort's own parser accepts it, it neither merges, checks nor
// writes a file, it has no -u, and its order is total.
func SortCountable(args []string) bool {
	cfg, _, outFile, err := parseSort(args)
	return err == nil && cfg.countable(outFile)
}

func (cfg *sortConfig) countable(outFile string) bool {
	return !cfg.merge && !cfg.check && !cfg.unique && outFile == "" && cfg.order().total()
}

// parseSortCount reads the count stage's argv, sort's, and refuses the
// ones SortCountable refuses.
func parseSortCount(ctx *Context) (*lineOrder, sortConfig, []string, error) {
	cfg, operands, outFile, err := parseSort(ctx.Args)
	if err == nil && !cfg.countable(outFile) {
		err = errors.New("not a total order without -m, -c, -o or -u")
	}
	if err != nil {
		return nil, cfg, nil, ctx.Errorf("%v", err)
	}
	return cfg.order(), cfg, operands, nil
}

// SortCount is the count stage's map, and the whole pair at width 1:
// `sort FLAGS | uniq -c` over its inputs. It ignores ctx.Limit: its
// first K lines can need any number of input lines.
func SortCount(ctx *Context) error {
	ord, cfg, operands, err := parseSortCount(ctx)
	if err != nil {
		return err
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	t := countTables.Get().(*countTable)
	defer t.recycle()
	for _, r := range readers {
		if err := t.read(r); err != nil {
			return err
		}
	}
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	if err := t.print(lw, ord, cfg.parallel); err != nil {
		return err
	}
	return lw.Flush()
}

// The table closes at the end of a window of countTableWindow lines of
// which more than countTableNew were new to it, judged from the second
// window on: every input starts with a burst of first sightings. Past
// that share a hash per line costs more than the smaller sort saves, so
// every later line goes to the arena uncounted and the one sort
// coalesces it: a unique-heavy input costs about what sort does, plus
// the first windows' table. BenchmarkSortCount sweeps the rule over 3 %
// to 98 % distinct lines (2-core Xeon): never closing took 1.6 times as
// long and 3 times the memory at 89 %; a share counted from the first
// line, with no window, closed at 3 % and took 3.5 times as long; a
// window of 16,384 lines, or a share of a half, closed at 25 % and took
// 1.25 to 1.4 times as long; this rule came within about 10 % of the
// fastest rule at every share.
const (
	countTableWindow = 1 << 15
	countTableNew    = countTableWindow * 2 / 3
)

// countTable counts lines by their exact bytes, in an open-addressing
// hash table over its arena. The arena holds each distinct line once,
// newline-terminated and behind its entry's index, in the order first
// seen, and after the table closes every later line as it came: such a
// line is a count-1 record, whether or not the table holds it too. No
// line is a Go string and no slice holds a pointer, so the garbage
// collector has nothing to scan.
type countTable struct {
	slots    []int32 // 1 + an index into entries, 0 when empty; a power of two long
	shift    uint    // a hash's top bits pick its slot: 64 - log2(len(slots))
	entries  []countEntry
	arena    []byte
	tableEnd int // arena[:tableEnd] is the table's lines
	lines    int // lines read while the table was open
	windowAt int // len(entries) when the current window began
	closed   bool
	counts   [2][]int64 // the print batches' counts, kept for the next use
	recs     []sortRec  // the ranked records, kept for the next use
}

type countEntry struct {
	hash     uint64
	off, len int
	count    int64
}

// countTables keeps tables for reuse. A daemon counts many small
// inputs, and growing a table's slices is most of what a small count
// allocates. A table that grew past 16,384 slots or a 1 MiB arena is
// left to the collector, so the pool holds at most about 1.4 MiB a table.
var countTables = sync.Pool{New: func() any { return new(countTable) }}

// recycle empties the table into countTables.
func (t *countTable) recycle() {
	if len(t.slots) > 1<<14 || cap(t.arena) > 1<<20 || cap(t.recs) > 1<<14 {
		return
	}
	clear(t.slots)
	*t = countTable{slots: t.slots, shift: t.shift, entries: t.entries[:0], arena: t.arena[:0], counts: t.counts, recs: t.recs[:0]}
	countTables.Put(t)
}

// countSeed seeds the table's hash. The output never depends on it: the
// table's lines are sorted or ranked before they print, and the count
// stage's aggregate sums whatever order its maps print in.
var countSeed = maphash.MakeSeed()

// read counts r's lines while the table is open, and appends the rest
// of r to the arena once it is closed.
func (t *countTable) read(r io.Reader) error {
	var carry []byte // the start of a line that runs past its block
	for !t.closed {
		blk, err := NextBlock(r)
		if err == io.EOF {
			if len(carry) > 0 {
				t.add(carry)
			}
			return nil
		}
		if err != nil {
			return err
		}
		b := blk // resliced as lines are counted; blk is what goes back
		for len(b) > 0 && !t.closed {
			i := bytes.IndexByte(b, '\n')
			if i < 0 {
				carry = append(carry, b...)
				break
			}
			line := b[:i]
			if len(carry) > 0 {
				carry = append(carry, line...)
				line = carry
			}
			t.add(line)
			carry, b = carry[:0], b[i+1:]
		}
		if t.closed {
			t.arena = append(t.arena, b...)
		}
		PutBlock(blk)
	}
	var err error
	t.arena, err = readArena(r, t.arena)
	if n := len(t.arena); n > t.tableEnd && t.arena[n-1] != '\n' {
		t.arena = append(t.arena, '\n')
	}
	return err
}

// find returns the slot that holds line, or the empty slot where it
// would go, and line's hash.
func (t *countTable) find(line []byte) (*int32, uint64) {
	h := maphash.Bytes(countSeed, line)
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if *s == 0 {
			return s, h
		}
		if e := &t.entries[*s-1]; e.hash == h && bytes.Equal(t.arena[e.off:e.off+e.len], line) {
			return s, h
		}
	}
}

// add counts one line of an open table, and closes the table at the
// end of a window that passes its share.
func (t *countTable) add(line []byte) {
	t.insert(line, 1)
	if t.lines++; t.lines%countTableWindow == 0 {
		t.closed = t.lines > countTableWindow && len(t.entries)-t.windowAt > countTableNew
		t.windowAt = len(t.entries)
	}
}

// insert adds n to line's count, entering the line when it is new.
func (t *countTable) insert(line []byte, n int64) {
	if 2*len(t.entries) >= len(t.slots) {
		t.grow()
	}
	if s, h := t.find(line); *s != 0 {
		t.entries[*s-1].count += n
	} else {
		t.arena = binary.LittleEndian.AppendUint32(t.arena, uint32(len(t.entries)))
		t.entries = append(t.entries, countEntry{hash: h, off: len(t.arena), len: len(line), count: n})
		*s = int32(len(t.entries))
		t.arena = append(append(t.arena, line...), '\n')
		t.tableEnd = len(t.arena)
	}
}

// grow doubles the slots (from 256) and places every entry again.
func (t *countTable) grow() {
	t.slots = make([]int32, max(256, 2*len(t.slots)))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	mask := uint64(len(t.slots) - 1)
	for j, e := range t.entries {
		i := e.hash >> t.shift
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(j + 1)
	}
}

// print sorts the arena's lines under ord and prints each run of equal
// ones once, behind the sum of its records' counts, as uniq -c does.
// The lines go out in sorted order through 64 KiB batches: this
// goroutine gathers them, a read from anywhere in the arena per line,
// which a loop this light overlaps, and once there is more than one
// batch a second goroutine coalesces and formats them, as uniq -c runs
// beside sort.
func (t *countTable) print(lw *LineWriter, ord *lineOrder, workers int) error {
	recs := make([]sortRec, 0, len(t.entries)+bytes.Count(t.arena[t.tableEnd:], newline))
	for _, e := range t.entries {
		recs = append(recs, ord.rec(t.arena, e.off, e.len))
	}
	recs = sortRecs(ord.appendIndex(recs, t.arena, t.tableEnd), t.arena, ord, workers, math.MaxInt)

	batches := [2]countBatch{{lines: GetBlock(), counts: t.counts[0]}, {lines: GetBlock(), counts: t.counts[1]}}
	defer func() {
		for i, b := range batches {
			PutBlock(b.lines)
			t.counts[i] = b.counts
		}
	}()
	runs := CountRuns{Out: lw}
	i := t.gather(&batches[0], recs, 0)
	if i == len(recs) {
		if err := batches[0].print(&runs); err != nil {
			return err
		}
		return runs.Flush()
	}
	// Each channel can hold both batches, so no send blocks.
	full, free, quit := make(chan *countBatch, 2), make(chan *countBatch, 2), make(chan struct{})
	full <- &batches[0]
	free <- &batches[1]
	errc := make(chan error, 1)
	go func() { errc <- printBatches(&runs, full, free, quit) }()
	for i < len(recs) {
		var b *countBatch
		select {
		case b = <-free:
		case <-quit: // the printer failed
			return <-errc
		}
		i = t.gather(b, recs, i)
		full <- b
	}
	close(full)
	return <-errc
}

// countBatch is a block of newline-terminated lines in sorted order and
// the count of each.
type countBatch struct {
	lines  []byte
	counts []int64
}

// gather refills b from recs[i:], up to a block's worth of lines, and
// returns the index of the first record it left.
func (t *countTable) gather(b *countBatch, recs []sortRec, i int) int {
	b.lines, b.counts = b.lines[:0], b.counts[:0]
	for ; i < len(recs) && len(b.lines) < BlockSize; i++ {
		r := recs[i]
		b.lines = append(b.lines, t.arena[r.off:r.off+r.len+1]...)
		b.counts = append(b.counts, t.count(r.off))
	}
	return i
}

// print hands each of b's lines, with its count, to runs.
func (b *countBatch) print(runs *CountRuns) error {
	lines := b.lines
	for _, n := range b.counts {
		j := bytes.IndexByte(lines, '\n')
		if err := runs.Add(lines[:j], n); err != nil {
			return err
		}
		lines = lines[j+1:]
	}
	return nil
}

// printBatches prints the batches on full through runs and returns each
// on free; it closes quit if it stops early.
func printBatches(runs *CountRuns, full <-chan *countBatch, free chan<- *countBatch, quit chan struct{}) error {
	for b := range full {
		if err := b.print(runs); err != nil {
			close(quit)
			return err
		}
		free <- b
	}
	return runs.Flush()
}

// CountRuns prints each run of equal lines it is handed once, behind the
// sum of their counts, as uniq -c does: the count stage's printer, and
// pash-agg-uniq -c's.
type CountRuns struct {
	Out  *LineWriter
	line []byte // the run's line, a copy: it outlives the caller's
	sum  int64
	have bool
}

// Add counts n more of line: in the run, when line is the run's line,
// or else in a new run, once the last one is printed.
func (c *CountRuns) Add(line []byte, n int64) error {
	if c.have && bytes.Equal(line, c.line) {
		c.sum += n
		return nil
	}
	if err := c.Flush(); err != nil {
		return err
	}
	c.line, c.sum, c.have = append(c.line[:0], line...), n, true
	return nil
}

// Flush prints the run so far.
func (c *CountRuns) Flush() error {
	if !c.have {
		return nil
	}
	c.have = false
	return writeCount(c.Out, c.sum, c.line)
}

// count is the count of the record at off: a table line's entry index
// is the four bytes in front of it.
func (t *countTable) count(off int) int64 {
	if off >= t.tableEnd {
		return 1
	}
	return t.entries[binary.LittleEndian.Uint32(t.arena[off-4:])].count
}

// SortCountMerge is the count stage's aggregate: it merges count
// streams, each sorted by its lines under the stage's order, and prints
// each line once behind the sum of its counts. Its output is a count
// stream in the same order, so partial merges merge again.
func SortCountMerge(ctx *Context) error {
	ord, _, operands, err := parseSortCount(ctx)
	if err != nil {
		return err
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	counts := make([]int64, len(readers))
	cut := func(src int, raw []byte) ([]byte, error) {
		n, line, ok := CutUniqCount(raw)
		if !ok {
			return nil, fmt.Errorf("%s: malformed count line %q", ctx.Name, raw)
		}
		counts[src] = n
		return line, nil
	}
	runs := CountRuns{Out: lw}
	err = mergeRuns(readers, ord, cut, func(src int, line []byte, _ uint64) (bool, error) {
		return true, runs.Add(line, counts[src])
	})
	if err == nil {
		err = runs.Flush()
	}
	if err != nil {
		return err
	}
	return lw.Flush()
}

// The count-and-rank stage is `sort FLAGS | uniq -c | sort -n`, or -rn,
// as one pure command, for a count pair the count stage takes. The pair
// prints one `%7d LINE` per distinct line, and the key of sort -n is
// that count. Equal counts print equal prefixes, so their ties fall to
// sort's last resort, bytewise over LINE, which -r reverses with the
// rest. So the triple prints each distinct line behind its count,
// ordered by count and then bytewise by line, both reversed under -r,
// whatever the first sort's flags were. The stage ranks the count
// table's entries in that order and formats only the lines it prints.
// Its maps (pash-count) print partial counts in any order, and its
// aggregate sums the counts of equal lines and ranks them.

// SortRankable reports whether sort's argv, read by sort's own parser,
// is a numeric order of whole lines, reversed or not, and nothing else:
// no key, separator, -s, -u, -f, -b, -d, -m, -c, -o or operand.
func SortRankable(args []string) (reverse, ok bool) {
	cfg, operands, outFile, err := parseSort(args)
	return cfg.reverse, err == nil && len(operands) == 0 && outFile == "" && cfg.ranks()
}

// ranks reports whether the configuration is -n or -rn alone, with
// --parallel at most, which changes no output.
func (cfg *sortConfig) ranks() bool {
	return cfg.numeric && !cfg.foldCase && !cfg.dictionary && !cfg.blanks && !cfg.unique &&
		!cfg.stable && !cfg.merge && !cfg.check && cfg.keys == nil && cfg.delim == 0
}

// parseRank reads the argv of the rank stage and its aggregate: -n or
// -rn, and their input operands.
func parseRank(ctx *Context) (reverse bool, operands []string, err error) {
	cfg, operands, outFile, err := parseSort(ctx.Args)
	if err == nil && (outFile != "" || !cfg.ranks()) {
		err = errors.New("not a numeric order of whole lines")
	}
	if err != nil {
		return false, nil, ctx.Errorf("%v", err)
	}
	return cfg.reverse, operands, nil
}

// CountRank is the count-and-rank stage, the whole triple at width 1:
// `sort | uniq -c | sort -n` over its inputs, or `sort -rn` last for
// -rn. With ctx.Limit K it settles and prints only the first K lines.
func CountRank(ctx *Context) error {
	reverse, operands, err := parseRank(ctx)
	if err != nil {
		return err
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	t := countTables.Get().(*countTable)
	defer t.recycle()
	for _, r := range readers {
		if err := t.read(r); err != nil {
			return err
		}
	}
	return t.printRanked(ctx, reverse)
}

// CountLines is the count-and-rank stage's map: it counts its inputs'
// lines and prints uniq -c's line for each, in no order: the table's
// lines as first seen, then each line read after the table closed, with
// a count of 1. A line can print more than once; the aggregate sums it.
func CountLines(ctx *Context) error {
	readers, cleanup, err := ctx.OpenInputs(ctx.Args)
	if err != nil {
		return err
	}
	defer cleanup()
	t := countTables.Get().(*countTable)
	defer t.recycle()
	for _, r := range readers {
		if err := t.read(r); err != nil {
			return err
		}
	}
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	for _, e := range t.entries {
		if err := writeCount(lw, e.count, t.arena[e.off:e.off+e.len]); err != nil {
			return err
		}
	}
	for off := t.tableEnd; off < len(t.arena); {
		n := bytes.IndexByte(t.arena[off:], '\n')
		if err := writeCount(lw, 1, t.arena[off:off+n]); err != nil {
			return err
		}
		off += n + 1
	}
	return lw.Flush()
}

// CountRankMerge is the count-and-rank stage's aggregate: it reads
// count lines, in any order, from every input, sums the counts of equal
// lines and prints them ranked, as CountRank does. Its output is count
// lines, so partial aggregates aggregate again.
func CountRankMerge(ctx *Context) error {
	reverse, operands, err := parseRank(ctx)
	if err != nil {
		return err
	}
	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	t := countTables.Get().(*countTable)
	defer t.recycle()
	err = EachLineReaders(readers, func(raw []byte) error {
		n, line, ok := CutUniqCount(raw)
		if !ok {
			return fmt.Errorf("%s: malformed count line %q", ctx.Name, raw)
		}
		t.insert(line, n)
		return nil
	})
	if err != nil {
		return err
	}
	return t.printRanked(ctx, reverse)
}

// printRanked prints the table's distinct lines ranked, the first
// ctx.Limit of them or all, each behind its count as uniq -c prints it.
func (t *countTable) printRanked(ctx *Context, reverse bool) error {
	limit := ctx.Limit
	if limit <= 0 {
		limit = math.MaxInt
	}
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()
	for _, r := range t.ranked(reverse, limit) {
		n := r.key
		if reverse {
			n = ^n
		}
		if err := writeCount(lw, int64(n), t.arena[r.off:r.off+r.len]); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// ranked returns the first limit of the table's distinct lines in rank
// order: by count and then bytewise by line, both descending when
// reverse. Each record is keyed by its line's count, complemented when
// reverse. An open table's entries are those lines, in no order, and
// rankSort settles the first limit of them. A closed table's lines come
// in line order (coalesce), which rankLineOrdered ranks.
func (t *countTable) ranked(reverse bool, limit int) []sortRec {
	closed := t.tableEnd < len(t.arena)
	recs := t.recs[:0]
	if closed {
		recs = t.coalesce(recs)
	} else {
		for _, e := range t.entries {
			recs = append(recs, sortRec{key: uint64(e.count), off: e.off, len: e.len})
		}
	}
	t.recs = recs
	if reverse {
		complementKeys(recs)
	}
	limit = min(limit, len(recs))
	if closed {
		rankLineOrdered(recs, t.arena, reverse)
	} else {
		rankSort(recs, t.arena, reverse, depthBudget(recs), 0, limit)
	}
	return recs[:limit]
}

// coalesce appends to recs one record per distinct line of a closed
// table, in ascending line order, keyed by the line's count: the
// table's records, its entries and the lines read after it closed, are
// sorted bytewise, and each run of equal lines becomes its first
// record, keyed by the sum of the run's counts.
func (t *countTable) coalesce(recs []sortRec) []sortRec {
	for _, e := range t.entries {
		recs = append(recs, ascending.rec(t.arena, e.off, e.len))
	}
	recs = ascending.appendIndex(recs, t.arena, t.tableEnd)
	settleLines(recs, t.arena, false, 0, len(recs))
	out := recs[:0]
	for i := 0; i < len(recs); {
		r := recs[i]
		line := t.arena[r.off : r.off+r.len]
		sum := t.count(r.off)
		for i++; i < len(recs) && bytes.Equal(t.arena[recs[i].off:recs[i].off+recs[i].len], line); i++ {
			sum += t.count(recs[i].off)
		}
		out = append(out, sortRec{key: uint64(sum), off: r.off, len: r.len})
	}
	return out
}

// writeCount prints line behind its count, as uniq -c does.
func writeCount(lw *LineWriter, n int64, line []byte) error {
	var count [24]byte
	if _, err := lw.Write(AppendUniqCount(count[:0], n)); err != nil {
		return err
	}
	return lw.WriteLine(line)
}

// rankLineOrdered ranks recs, records in ascending line order keyed
// by their counts, complemented when reverse. Lines of one count keep
// that order, or its reverse under reverse, so the records of the
// commonest count, most of them where a unique-heavy input closed the
// table, stay one run in order, and only the others are ranked, to go
// before or after the run. The commonest count is the majority vote's
// (Boyer and Moore): any count that more than half the records share.
func rankLineOrdered(recs []sortRec, arena []byte, reverse bool) {
	if reverse {
		slices.Reverse(recs)
	}
	var mode uint64
	votes := 0
	for _, r := range recs {
		switch {
		case votes == 0:
			mode, votes = r.key, 1
		case r.key == mode:
			votes++
		default:
			votes--
		}
	}
	var others []sortRec
	run := 0
	for _, r := range recs {
		if r.key == mode {
			recs[run] = r
			run++
		} else {
			others = append(others, r)
		}
	}
	rankSort(others, arena, reverse, depthBudget(others), 0, len(others))
	below, _ := slices.BinarySearchFunc(others, mode, func(r sortRec, k uint64) int { return cmp.Compare(r.key, k) })
	copy(recs[below:], recs[:run])
	copy(recs, others[:below])
	copy(recs[below+run:], others[below:])
}

// rankSort settles positions [lo, hi) of recs, lines keyed by their
// counts, complemented when reverse, in rank order: keySort's partial
// quicksort on the keys, whose groups of equal counts go to the multikey
// quicksort over their lines. A group's keys are its count again when
// it returns.
func rankSort(recs []sortRec, arena []byte, reverse bool, budget, lo, hi int) {
	for len(recs) > 1 && lo < len(recs) && hi > 0 {
		if budget == 0 || len(recs) <= mkqSmall {
			sign := 1
			if reverse {
				sign = -1
			}
			slices.SortFunc(recs, func(x, y sortRec) int {
				if x.key != y.key {
					return cmp.Compare(x.key, y.key)
				}
				return sign * bytes.Compare(arena[x.off:x.off+x.len], arena[y.off:y.off+y.len])
			})
			return
		}
		p := pivotKey(recs)
		lt, gt := partition3(recs, p)
		rankSort(recs[:lt], arena, reverse, budget-1, lo, hi)
		if ties := recs[lt:gt]; len(ties) > 1 && lo < gt && hi > lt {
			for i := range ties {
				r := &ties[i]
				r.key = loadWord(arena, r.off, r.len)
			}
			settleLines(ties, arena, reverse, lo-lt, hi-lt)
			for i := range ties {
				ties[i].key = p
			}
		}
		recs, lo, hi, budget = recs[gt:], lo-gt, hi-gt, budget-1
	}
}
