package commands

import (
	"bytes"
	"strconv"
	"strings"

	"repro/internal/annot"
)

func init() { register("uniq", uniq) }

// refineUniq demotes uniq with an output-file operand (uniq IN OUT
// writes a file) to side-effectful.
func refineUniq(inv *annot.Invocation) {
	if len(inv.Opts.Operands) > 1 {
		inv.Class = annot.SideEffectful
	}
}

// uniq filters adjacent duplicate lines. Flags: -c (prefix counts),
// -d (only duplicated), -u (only unique), -i (ignore ASCII case), -f N (skip N
// fields), -s N (skip N chars), -w N (compare at most N chars).
func uniq(ctx *Context) error {
	var countFlag, dupOnly, uniqOnly, ignoreCase bool
	skipFields, skipChars, checkChars := 0, 0, -1
	var operands []string
	args := ctx.Args
	for i := 0; i < len(args); i++ {
		a := args[i]
		grabInt := func(attached string) (int, error) {
			v := attached
			if v == "" {
				i++
				if i >= len(args) {
					return 0, ctx.Errorf("option %q requires an argument", a)
				}
				v = args[i]
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return 0, ctx.Errorf("invalid number %q", v)
			}
			return n, nil
		}
		switch {
		case a == "-c":
			countFlag = true
		case a == "-d":
			dupOnly = true
		case a == "-u":
			uniqOnly = true
		case a == "-i":
			ignoreCase = true
		case strings.HasPrefix(a, "-f"):
			n, err := grabInt(a[2:])
			if err != nil {
				return err
			}
			skipFields = n
		case strings.HasPrefix(a, "-s"):
			n, err := grabInt(a[2:])
			if err != nil {
				return err
			}
			skipChars = n
		case strings.HasPrefix(a, "-w"):
			n, err := grabInt(a[2:])
			if err != nil {
				return err
			}
			checkChars = n
		case a == "-":
			operands = append(operands, a)
		case strings.HasPrefix(a, "-"):
			return ctx.Errorf("unsupported flag %q", a)
		default:
			operands = append(operands, a)
		}
	}
	if len(operands) > 1 {
		return ctx.Errorf("writing to an output file operand is not supported")
	}

	var folded []byte
	keyOf := func(line []byte) []byte {
		k := line
		for f := 0; f < skipFields && len(k) > 0; f++ {
			j := 0
			for j < len(k) && (k[j] == ' ' || k[j] == '\t') {
				j++
			}
			for j < len(k) && k[j] != ' ' && k[j] != '\t' {
				j++
			}
			k = k[j:]
		}
		if skipChars < len(k) {
			k = k[skipChars:]
		} else {
			k = nil
		}
		if checkChars >= 0 && checkChars < len(k) {
			k = k[:checkChars]
		}
		if ignoreCase {
			// -i folds ASCII letters only, as GNU uniq does under
			// LC_ALL=C; bytes.ToLower would fold É and turn every
			// invalid byte into U+FFFD.
			folded = folded[:0]
			for _, c := range k {
				folded = append(folded, asciiFold[c])
			}
			k = folded
		}
		return k
	}

	readers, cleanup, err := ctx.OpenInputs(operands)
	if err != nil {
		return err
	}
	defer cleanup()
	lw := NewLineWriter(ctx.Stdout)
	defer lw.Flush()

	var cur, curKey, counted []byte
	count := 0
	emit := func() error {
		if count == 0 {
			return nil
		}
		if dupOnly && count < 2 {
			return nil
		}
		if uniqOnly && count > 1 {
			return nil
		}
		if countFlag {
			counted = append(AppendUniqCount(counted[:0], int64(count)), cur...)
			return lw.WriteLine(counted)
		}
		return lw.WriteLine(cur)
	}
	err = EachLineReaders(readers, func(line []byte) error {
		key := keyOf(line)
		if count > 0 && bytes.Equal(key, curKey) {
			count++
			return nil
		}
		if err := emit(); err != nil {
			return err
		}
		cur = append(cur[:0], line...)
		curKey = append(curKey[:0], key...)
		count = 1
		return nil
	})
	if err != nil {
		return err
	}
	if err := emit(); err != nil {
		return err
	}
	return lw.Flush()
}

// AppendUniqCount appends count as uniq -c prints it: right-aligned in
// seven columns, or as wide as it is from 10,000,000 on, then one space.
// The uniq -c aggregate formats its merged counts with it too.
func AppendUniqCount(b []byte, count int64) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], count, 10)
	for i := len(d); i < 7; i++ {
		b = append(b, ' ')
	}
	return append(append(b, d...), ' ')
}

// CutUniqCount splits a line that uniq -c printed into its count and the
// line it counted; ok is false when raw is not of that form.
func CutUniqCount(raw []byte) (count int64, line []byte, ok bool) {
	i := 0
	for i < len(raw) && raw[i] == ' ' {
		i++
	}
	j := i
	for j < len(raw) && '0' <= raw[j] && raw[j] <= '9' {
		j++
	}
	if j == i || j-i > 18 || j == len(raw) || raw[j] != ' ' {
		return 0, nil, false
	}
	for _, c := range raw[i:j] {
		count = count*10 + int64(c-'0')
	}
	return count, raw[j+1:], true
}
