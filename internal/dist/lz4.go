package dist

import (
	"encoding/binary"
	"errors"
	"sync"
)

// This file is a self-contained LZ4 block codec (the classic block
// format: token byte, literal run, 2-byte little-endian offset, match
// run). A sender compresses a data frame with it when its measured link
// is slower than the codec; no external dependency is acceptable on
// either side of the wire, so the implementation lives here.
//
// The compressor is a greedy single-pass matcher over a 2^13-entry
// hash table — the classic fast level. It follows the format's end
// rules (the last 5 bytes are always literals, no match starts within
// the last 12 bytes) so the output is a valid LZ4 block, not merely
// something our own decoder accepts. The decompressor is hardened for
// adversarial input: every length and offset is bounds-checked, and a
// malformed block yields errLZ4Corrupt, never a panic or an overread —
// FuzzLZ4 and the frame fuzzers hold it to that.

const (
	lz4MinInput  = 32 // shorter inputs are never worth a block
	lz4MinMatch  = 4  // matches shorter than this don't pay for the token
	lz4LastLits  = 5  // format rule: the block ends with >= 5 literals
	lz4MFLimit   = 12 // format rule: no match starts past len(src)-12
	lz4TableBits = 13
	lz4TableSize = 1 << lz4TableBits
	lz4MaxOffset = 65535
)

// errLZ4Corrupt marks a block the decoder could not interpret; callers
// fold it into ErrCorruptFrame so transport corruption keeps one
// taxonomy.
var errLZ4Corrupt = errors.New("dist: corrupt lz4 block")

// lz4Tables pools the compressor's position tables. Stale entries from
// a previous buffer are harmless — every candidate is validated against
// the current position and the actual bytes — so pooled tables are
// never cleared.
var lz4Tables = sync.Pool{New: func() any { return new([lz4TableSize]int32) }}

func lz4Hash(u uint32) uint32 { return (u * 2654435761) >> (32 - lz4TableBits) }

// lz4Compress appends the LZ4 block encoding of src to dst and reports
// whether compressing was worthwhile: ok is false (and the appended
// bytes must be discarded by the caller) when the input is too small or
// the encoded form fails to save at least 1/16 of the input. The
// savings floor is what makes "try, then send raw" cheap on
// incompressible data — near-miss compressions are not worth the
// decode cost on the other side.
func lz4Compress(dst, src []byte) ([]byte, bool) {
	n := len(src)
	if n < lz4MinInput || n > maxFrame {
		return dst, false
	}
	budget := len(dst) + n - n/16
	table := lz4Tables.Get().(*[lz4TableSize]int32)
	defer lz4Tables.Put(table)

	anchor, i := 0, 0
	end := n - lz4MFLimit
	// cnt implements the standard skip acceleration: after a run of
	// misses the scan stride grows, bounding worst-case work on
	// incompressible input.
	cnt := 1 << 6
	for i <= end {
		h := lz4Hash(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || cand >= i || i-cand > lz4MaxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i += cnt >> 6
			cnt++
			continue
		}
		cnt = 1 << 6
		// Extend the match backward into pending literals.
		for i > anchor && cand > 0 && src[i-1] == src[cand-1] {
			i--
			cand--
		}
		mlen := lz4MinMatch
		maxLen := n - lz4LastLits - i
		for mlen < maxLen && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		dst = lz4EmitSeq(dst, src[anchor:i], i-cand, mlen)
		if len(dst) >= budget {
			return dst, false
		}
		i += mlen
		anchor = i
	}
	dst = lz4EmitLits(dst, src[anchor:])
	return dst, len(dst) < budget
}

// lz4EmitSeq appends one sequence: literals, then a match of mlen bytes
// at the given back-offset.
func lz4EmitSeq(dst, lits []byte, offset, mlen int) []byte {
	ll, ml := len(lits), mlen-lz4MinMatch
	tok := byte(0)
	if ll >= 15 {
		tok = 15 << 4
	} else {
		tok = byte(ll) << 4
	}
	if ml >= 15 {
		tok |= 15
	} else {
		tok |= byte(ml)
	}
	dst = append(dst, tok)
	if ll >= 15 {
		dst = lz4AppendLen(dst, ll-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lz4AppendLen(dst, ml-15)
	}
	return dst
}

// lz4EmitLits appends the block's final literal-only sequence.
func lz4EmitLits(dst, lits []byte) []byte {
	ll := len(lits)
	tok := byte(15 << 4)
	if ll < 15 {
		tok = byte(ll) << 4
	}
	dst = append(dst, tok)
	if ll >= 15 {
		dst = lz4AppendLen(dst, ll-15)
	}
	return append(dst, lits...)
}

// lz4AppendLen appends the 255-saturated length extension bytes.
func lz4AppendLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// lz4Decompress decodes one LZ4 block into dst, whose length must be
// the exact decoded size (the wire carries it alongside the block).
// Any structural violation — a length running past either buffer, an
// offset reaching before the output start, a block that decodes to the
// wrong size — returns errLZ4Corrupt.
func lz4Decompress(dst, src []byte) error {
	si, di := 0, 0
	for si < len(src) {
		tok := src[si]
		si++
		ll := int(tok >> 4)
		if ll == 15 {
			for {
				if si >= len(src) || ll > len(dst) {
					return errLZ4Corrupt
				}
				b := src[si]
				si++
				ll += int(b)
				if b != 255 {
					break
				}
			}
		}
		if ll > 0 {
			if ll > len(src)-si || ll > len(dst)-di {
				return errLZ4Corrupt
			}
			copy(dst[di:], src[si:si+ll])
			si += ll
			di += ll
		}
		if si == len(src) {
			// The final sequence carries literals only.
			break
		}
		if len(src)-si < 2 {
			return errLZ4Corrupt
		}
		off := int(src[si]) | int(src[si+1])<<8
		si += 2
		if off == 0 || off > di {
			return errLZ4Corrupt
		}
		ml := int(tok & 15)
		if ml == 15 {
			for {
				if si >= len(src) || ml > len(dst) {
					return errLZ4Corrupt
				}
				b := src[si]
				si++
				ml += int(b)
				if b != 255 {
					break
				}
			}
		}
		ml += lz4MinMatch
		if ml > len(dst)-di {
			return errLZ4Corrupt
		}
		if off >= ml {
			copy(dst[di:di+ml], dst[di-off:])
		} else {
			// Overlapping match: the RLE-style self-referencing copy.
			for j := 0; j < ml; j++ {
				dst[di+j] = dst[di+j-off]
			}
		}
		di += ml
	}
	if di != len(dst) {
		return errLZ4Corrupt
	}
	return nil
}
