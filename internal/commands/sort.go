package commands

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

func init() { register("sort", sortCmd) }

// sortConfig captures the comparison behaviour of a sort invocation.
type sortConfig struct {
	numeric    bool
	reverse    bool
	foldCase   bool
	unique     bool
	merge      bool
	dictionary bool
	key        *sortKey // single -k POS1[,POS2] spec (common case)
	delim      byte     // -t; 0 means blank runs
	parallel   int      // --parallel=N; 0 = default
	check      bool     // -c
}

type sortKey struct {
	startField int // 1-based
	endField   int // 0 = end of line
	numeric    bool
	reverse    bool
}

// sortCmd implements sort: flags -n, -r, -u, -f, -d, -m, -c, -k POS1[,POS2]
// (with per-key n/r modifiers), -t SEP, -o FILE, --parallel=N.
func sortCmd(ctx *Context) error {
	cfg := sortConfig{}
	var operands []string
	outFile := ""
	args := ctx.Args
	for i := 0; i < len(args); i++ {
		a := args[i]
		grab := func(attached string) (string, error) {
			if attached != "" {
				return attached, nil
			}
			i++
			if i >= len(args) {
				return "", ctx.Errorf("option %q requires an argument", a)
			}
			return args[i], nil
		}
		switch {
		case a == "-" || !strings.HasPrefix(a, "-"):
			operands = append(operands, a)
		case strings.HasPrefix(a, "--parallel="):
			n, err := strconv.Atoi(a[len("--parallel="):])
			if err != nil || n < 1 {
				return ctx.Errorf("invalid --parallel value %q", a)
			}
			cfg.parallel = n
		case strings.HasPrefix(a, "-k"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			k, err := parseSortKey(v)
			if err != nil {
				return ctx.Errorf("invalid key %q: %v", v, err)
			}
			cfg.key = k
		case strings.HasPrefix(a, "-t"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			if len(v) != 1 {
				return ctx.Errorf("separator must be one character")
			}
			cfg.delim = v[0]
		case strings.HasPrefix(a, "-o"):
			v, err := grab(a[2:])
			if err != nil {
				return err
			}
			outFile = v
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
				case 'm':
					cfg.merge = true
				case 'c':
					cfg.check = true
				case 'b', 's':
					// -b ignore leading blanks is implied by our key
					// handling; -s stability is the default here.
				default:
					return ctx.Errorf("unsupported flag -%c", c)
				}
			}
		}
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
		var prev []byte
		var prevKey uint64
		first := true
		sorted := true
		err = EachLineReaders(readers, func(line []byte) error {
			key := ord.decorate(line)
			if !first && ord.compare(key, line, prevKey, prev) < 0 {
				sorted = false
				return io.EOF
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

	if cfg.merge {
		// -m: merge already-sorted inputs (the heart of PaSh's sort
		// aggregator).
		if err := mergeSorted(readers, lw, ord, cfg.unique); err != nil {
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
	recs := sortRecs(ord.index(arena), arena, ord, cfg.parallel)

	var prev sortRec
	for i, r := range recs {
		if cfg.unique && i > 0 && ord.compareRecs(arena, prev, r) == 0 {
			continue
		}
		// Arena lines keep their newline: one append per line.
		if _, err := lw.Write(arena[r.off : r.off+r.len+1]); err != nil {
			return err
		}
		prev = r
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
// flags. Each line is decorated once with a uint64 whose integer order
// agrees with the primary comparison — the big-endian first 8 bytes of
// the compared field for bytewise sorts, an order-preserving image of the
// parsed number for -n — so most comparisons never touch the line. Ties
// on the decoration fall through to the full comparison.
type lineOrder struct {
	field    *sortKey // -k: the compared field range; nil compares whole lines
	delim    byte
	numeric  bool
	sign     int // -1 for -r, which negates every comparison; else 1
	foldCase bool
	dict     bool
}

// order builds the line ordering for the configuration.
func (cfg *sortConfig) order() *lineOrder {
	keyed := cfg.key != nil
	sign := 1
	if cfg.reverse || (keyed && cfg.key.reverse) {
		sign = -1
	}
	return &lineOrder{
		field:    cfg.key,
		delim:    cfg.delim,
		numeric:  cfg.numeric || (keyed && cfg.key.numeric),
		sign:     sign,
		foldCase: cfg.foldCase,
		dict:     cfg.dictionary,
	}
}

// total reports whether lines that compare equal are byte-identical, in
// which case neither stability nor the choice of -u's survivor is
// observable. Only unkeyed -f/-d orderings have distinct equal lines: a
// key's last resort is the whole line.
func (o *lineOrder) total() bool {
	return o.field != nil || !(o.foldCase || o.dict)
}

// decorate computes a line's sort key.
func (o *lineOrder) decorate(line []byte) uint64 {
	k := line
	if o.field != nil {
		k = extractKey(line, o.field, o.delim)
	}
	switch {
	case o.numeric:
		f := parseLeadingFloat(k)
		if f == 0 {
			f = 0 // -0 sorts with 0
		}
		bits := math.Float64bits(f)
		if bits>>63 != 0 {
			return ^bits
		}
		return bits | 1<<63
	case o.foldCase || o.dict:
		// No byte prefix orders folded or dictionary text.
		return 0
	}
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var p [8]byte
	copy(p[:], k)
	return binary.BigEndian.Uint64(p[:])
}

// compare is the three-way comparison of two decorated lines.
func (o *lineOrder) compare(ak uint64, a []byte, bk uint64, b []byte) int {
	if ak != bk {
		return o.byKey(ak, bk)
	}
	return o.sign * o.tie(a, b)
}

// byKey orders two lines whose decorations differ, without reading
// either. It is small enough to inline into the sort's comparison.
func (o *lineOrder) byKey(ak, bk uint64) int {
	if ak < bk {
		return -o.sign
	}
	return o.sign
}

// tie orders two lines whose decorations are equal: the compared fields
// byte by byte (sort -n breaks numeric ties that way too), folded or
// dictionary-filtered on request, and for keyed sorts GNU's last resort,
// the whole line.
func (o *lineOrder) tie(a, b []byte) int {
	if o.field == nil {
		if o.numeric {
			return bytes.Compare(a, b)
		}
		return compareText(a, b, o.foldCase, o.dict)
	}
	ka, kb := extractKey(a, o.field, o.delim), extractKey(b, o.field, o.delim)
	var c int
	if o.numeric {
		c = bytes.Compare(ka, kb)
	} else {
		c = compareText(ka, kb, o.foldCase, o.dict)
	}
	if c == 0 {
		c = bytes.Compare(a, b)
	}
	return c
}

func (o *lineOrder) compareRecs(arena []byte, x, y sortRec) int {
	return o.compare(x.key, arena[x.off:x.off+x.len], y.key, arena[y.off:y.off+y.len])
}

// index builds the sort index over an arena of newline-terminated lines.
func (o *lineOrder) index(arena []byte) []sortRec {
	recs := make([]sortRec, 0, bytes.Count(arena, newline))
	for off := 0; off < len(arena); {
		n := bytes.IndexByte(arena[off:], '\n')
		recs = append(recs, sortRec{key: o.decorate(arena[off : off+n]), off: off, len: n})
		off += n + 1
	}
	return recs
}

// sortRecs sorts the index and returns it. A total ordering sorts with
// the unstable pattern-defeating quicksort, since no one can tell; -f/-d
// keep the stable sort. With workers > 1 (GNU sort's --parallel) the
// index is cut into runs sorted concurrently by the same kernel and
// merged through the loser tree.
func sortRecs(recs []sortRec, arena []byte, o *lineOrder, workers int) []sortRec {
	cmp := func(x, y sortRec) int {
		if x.key != y.key { // the common case, decided in this frame
			return o.byKey(x.key, y.key)
		}
		return o.compareRecs(arena, x, y)
	}
	sortRun := slices.SortStableFunc[[]sortRec]
	if o.total() {
		sortRun = slices.SortFunc[[]sortRec]
	}
	if workers > runtime.NumCPU()*2 {
		workers = runtime.NumCPU() * 2
	}
	if workers < 2 || len(recs) < 2*workers {
		sortRun(recs, cmp)
		return recs
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
			sortRun(run, cmp)
		}()
	}
	wg.Wait()

	out := make([]sortRec, 0, len(recs))
	lt := newLoserTree(len(runs), o)
	load := func(i int) {
		lt.live[i] = len(runs[i]) > 0
		if lt.live[i] {
			r := runs[i][0]
			lt.keys[i], lt.lines[i] = r.key, arena[r.off:r.off+r.len]
		}
	}
	for i := range runs {
		load(i)
	}
	lt.build()
	for len(out) < len(recs) {
		w := lt.winner()
		out = append(out, runs[w][0])
		runs[w] = runs[w][1:]
		load(w)
		lt.replay(w)
	}
	return out
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
// lw, selecting with a loser tree. A source's head line stays where its
// scanner found it — inside the source's current block — until the
// merge has written it out and pulls that source again, so no line is
// copied on the way in.
func mergeSorted(readers []io.Reader, lw *LineWriter, ord *lineOrder, unique bool) error {
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
	// prev outlives its source's next pull, so -u keeps a copy.
	var prev []byte
	var prevKey uint64
	first := true
	for live > 0 {
		w := lt.winner()
		key, line := lt.keys[w], lt.lines[w]
		if !unique || first || ord.compare(prevKey, prev, key, line) != 0 {
			if err := lw.WriteLine(line); err != nil {
				return err
			}
			if unique {
				prev, prevKey = append(prev[:0], line...), key
			}
			first = false
		}
		if err := pull(w); err != nil {
			return err
		}
		lt.replay(w)
	}
	return nil
}

func parseSortKey(spec string) (*sortKey, error) {
	k := &sortKey{}
	parsePos := func(s string) (field int, mods string, err error) {
		// POS is F[.C][OPTS]; we support the field part and opts.
		num := s
		for i := 0; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				num, mods = s[:i], s[i:]
				break
			}
		}
		if dot := strings.IndexByte(mods, '.'); dot == 0 {
			// Skip character offset; consume digits after the dot.
			rest := mods[1:]
			j := 0
			for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
				j++
			}
			mods = rest[j:]
		}
		field, err = strconv.Atoi(num)
		return field, mods, err
	}
	parts := strings.SplitN(spec, ",", 2)
	f, mods, err := parsePos(parts[0])
	if err != nil {
		return nil, err
	}
	k.startField = f
	applyMods := func(mods string) {
		for _, c := range mods {
			switch c {
			case 'n':
				k.numeric = true
			case 'r':
				k.reverse = true
			}
		}
	}
	applyMods(mods)
	if len(parts) == 2 {
		f, mods, err := parsePos(parts[1])
		if err != nil {
			return nil, err
		}
		k.endField = f
		applyMods(mods)
	}
	return k, nil
}

// extractKey pulls the -k field range out of a line.
func extractKey(line []byte, k *sortKey, delim byte) []byte {
	fields := splitSortFields(line, delim)
	lo := k.startField
	hi := k.endField
	if hi == 0 || hi > len(fields) {
		hi = len(fields)
	}
	if lo > len(fields) {
		return nil
	}
	if lo == hi {
		return fields[lo-1]
	}
	// Join the covered fields (approximation of byte-offset semantics).
	var out []byte
	for i := lo - 1; i < hi; i++ {
		if i > lo-1 {
			out = append(out, ' ')
		}
		out = append(out, fields[i]...)
	}
	return out
}

func splitSortFields(line []byte, delim byte) [][]byte {
	if delim != 0 {
		return bytes.Split(line, []byte{delim})
	}
	// Default: fields are separated by runs of blanks; each field begins
	// at the blank run (GNU semantics approximated by trimming).
	var fields [][]byte
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if start < i {
			fields = append(fields, line[start:i])
		}
	}
	return fields
}

func compareText(a, b []byte, fold, dict bool) int {
	if dict {
		a, b = dictBytes(a), dictBytes(b)
	}
	if fold {
		return bytes.Compare(bytes.ToUpper(a), bytes.ToUpper(b))
	}
	return bytes.Compare(a, b)
}

func dictBytes(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for _, c := range s {
		if c == ' ' || c == '\t' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	return out
}

// parseLeadingFloat implements sort -n's reading of a field: leading
// blanks, optional sign, digits, optional fraction; a non-numeric prefix
// is 0.
func parseLeadingFloat(s []byte) float64 {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	start := i
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	digits := false
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
		digits = true
	}
	if i < len(s) && s[i] == '.' {
		i++
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
			digits = true
		}
	}
	if !digits {
		return 0
	}
	f, err := strconv.ParseFloat(string(s[start:i]), 64)
	if err != nil {
		return 0
	}
	return f
}
