package main

import (
	"bufio"
	"math"
	"os"
)

// The benchmark owns its load: every input byte comes from this file,
// so an edit to internal/workload cannot change what is measured. The
// generator is a splitmix64 stream and a precomputed Zipf table, both
// independent of math/rand, so a seed names the same bytes on every Go
// release.

type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	vocabSize = 5000
	zipfSlots = 1 << 16
	// waterRank places the word the stateless scripts grep for: with
	// exponent 1.1 over 5000 words, rank 7 makes ~9% of lines match.
	waterRank = 6
)

// corpus is a seeded vocabulary plus the table that maps 16 random bits
// to a Zipf(1.1)-distributed word index.
type corpus struct {
	r     rng
	words [][]byte
	table [zipfSlots]uint16
}

func newCorpus(seed uint64) *corpus {
	c := &corpus{r: rng(seed)}
	c.words = make([][]byte, vocabSize)
	for i := range c.words {
		// Word length is a fixed function of rank, and only the letters
		// are seeded: the few top-ranked words carry most of the text, so
		// seeded lengths would make input size swing ~10% between seeds.
		w := make([]byte, 3+i*3%7)
		for j := range w {
			w[j] = 'a' + byte(c.r.next()%26)
		}
		c.words[i] = w
	}
	c.words[waterRank] = []byte("water")
	weights := make([]float64, vocabSize)
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
		sum += weights[i]
	}
	acc, k := 0.0, 0
	for i, w := range weights {
		acc += w / sum
		for ; k < zipfSlots && float64(k)/zipfSlots < acc; k++ {
			c.table[k] = uint16(i)
		}
	}
	for ; k < zipfSlots; k++ {
		c.table[k] = vocabSize - 1
	}
	return c
}

// appendLine appends one line of 3-7 space-separated words (~32 bytes);
// one word in eight is capitalised so `tr A-Z a-z` has work to do.
func (c *corpus) appendLine(buf []byte) []byte {
	n := 3 + int(c.r.next()%5)
	for j := 0; j < n; j++ {
		y := c.r.next()
		if j > 0 {
			buf = append(buf, ' ')
		}
		start := len(buf)
		buf = append(buf, c.words[c.table[y>>48]]...)
		if y&7 == 0 {
			buf[start] -= 'a' - 'A'
		}
	}
	return append(buf, '\n')
}

// text returns the next `lines` lines of the corpus.
func (c *corpus) text(lines int) []byte {
	buf := make([]byte, 0, lines*34)
	for i := 0; i < lines; i++ {
		buf = c.appendLine(buf)
	}
	return buf
}

// writeFile streams the next `lines` lines to path without holding them.
func (c *corpus) writeFile(path string, lines int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i := 0; i < lines; i++ {
		line = c.appendLine(line[:0])
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
