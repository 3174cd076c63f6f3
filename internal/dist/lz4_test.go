package dist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// lz4RoundTrip compresses src and, when compression engaged, decodes it
// back and requires byte identity.
func lz4RoundTrip(t *testing.T, src []byte) (compressed bool) {
	t.Helper()
	enc, ok := lz4Compress(nil, src)
	if !ok {
		return false
	}
	dec := make([]byte, len(src))
	if err := lz4Decompress(dec, enc); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dec))
	}
	return true
}

func TestLZ4RoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"repeated":  bytes.Repeat([]byte("the quick brown fox\n"), 500),
		"runs":      bytes.Repeat([]byte{'a'}, 10000),
		"text":      []byte(strings.Repeat("GET /index.html HTTP/1.1 200 1043\nPOST /submit HTTP/1.1 404 99\n", 200)),
		"short-rep": bytes.Repeat([]byte("ab"), 64),
	}
	for name, src := range cases {
		if !lz4RoundTrip(t, src) {
			t.Errorf("%s: expected compressible input to compress", name)
		}
	}
}

func TestLZ4IncompressibleRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 64<<10)
	rng.Read(src)
	if _, ok := lz4Compress(nil, src); ok {
		t.Fatalf("random input reported as compressible")
	}
	if _, ok := lz4Compress(nil, []byte("tiny")); ok {
		t.Fatalf("tiny input should not engage compression")
	}
}

func TestLZ4MixedContent(t *testing.T) {
	// Compressible head, random tail: round trip must stay exact across
	// the regime change even if compression barely pays.
	rng := rand.New(rand.NewSource(11))
	src := append(bytes.Repeat([]byte("log line: status ok\n"), 2000), make([]byte, 4096)...)
	rng.Read(src[len(src)-4096:])
	lz4RoundTrip(t, src)
}

func TestLZ4DecompressRejectsCorruption(t *testing.T) {
	src := bytes.Repeat([]byte("hello, frame corruption test\n"), 300)
	enc, ok := lz4Compress(nil, src)
	if !ok {
		t.Fatalf("expected compressible")
	}
	dst := make([]byte, len(src))
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if err := lz4Decompress(dst, enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	// A wrong declared size must be rejected.
	if err := lz4Decompress(make([]byte, len(src)+1), enc); err == nil {
		t.Fatalf("oversized dst decoded cleanly")
	}
	if err := lz4Decompress(make([]byte, len(src)-1), enc); err == nil {
		t.Fatalf("undersized dst decoded cleanly")
	}
}

// FuzzLZ4 holds the codec to its two guarantees: whatever compresses
// must decode back byte-identically, and arbitrary bytes fed to the
// decoder may error but never panic or overread.
func FuzzLZ4(f *testing.F) {
	f.Add([]byte(strings.Repeat("seed corpus line\n", 40)), 100)
	f.Add([]byte{0xff, 0xff, 0xff, 0x00}, 8)
	f.Add([]byte{0x1f, 'a', 1, 0}, 20)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		if enc, ok := lz4Compress(nil, data); ok {
			dec := make([]byte, len(data))
			if err := lz4Decompress(dec, enc); err != nil {
				t.Fatalf("own output rejected: %v", err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("round trip mismatch")
			}
		}
		// Adversarial decode: data as a bogus block, any claimed size.
		if rawLen < 0 || rawLen > 1<<20 {
			return
		}
		lz4Decompress(make([]byte, rawLen), data)
	})
}

// makeInput generates deterministic multi-line text.
func makeInput(lines int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "water", "People", "number", "X", "waltz", "time", "day", "zebra", "quick"}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		k := 1 + rng.Intn(8)
		for j := 0; j < k; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCompressDecision pins the rule every sender applies: lz4 only when
// the wire is slower than the codec takes bytes off it, and never when
// either rate is unknown or the codec saves less than 1/16.
func TestCompressDecision(t *testing.T) {
	const mb = 1e6
	for _, c := range []struct {
		name               string
		wire, codec, ratio float64
		want               bool
	}{
		{"unknown wire", 0, 160 * mb, 0.55, false},
		{"unknown codec", 10 * mb, 0, 1, false},
		{"loopback", 2000 * mb, 160 * mb, 0.55, false},
		{"10 GbE", 1250 * mb, 160 * mb, 0.25, false},
		{"10 MB/s, half the bytes", 10 * mb, 160 * mb, 0.5, true},
		{"just below break-even", 71 * mb, 160 * mb, 0.55, true},
		{"just above break-even", 73 * mb, 160 * mb, 0.55, false},
		{"incompressible on a slow wire", 1 * mb, 160 * mb, 15.0 / 16, false},
		{"incompressible on any wire", 0.01 * mb, 160 * mb, 0.99, false},
	} {
		if got := compressWins(c.wire, c.codec, c.ratio); got != c.want {
			t.Errorf("%s: compressWins(%g, %g, %g) = %v, want %v", c.name, c.wire, c.codec, c.ratio, got, c.want)
		}
	}
}

// BenchmarkLZ4 reports the codec's compress and decompress MB/s over the
// benchmark's text and over incompressible bytes; "ratio" is compressed
// over input size (1 when the block is refused).
func BenchmarkLZ4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 64<<10)
	rng.Read(noise)
	for _, in := range []struct {
		name string
		src  []byte
	}{{"text", []byte(makeInput(20_000, 3))[:64<<10]}, {"random", noise}} {
		enc, ok := lz4Compress(nil, in.src)
		ratio := 1.0
		if ok {
			ratio = float64(len(enc)) / float64(len(in.src))
		}
		b.Run("compress/"+in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			dst := make([]byte, 0, len(in.src))
			for i := 0; i < b.N; i++ {
				lz4Compress(dst[:0], in.src)
			}
			b.ReportMetric(ratio, "ratio")
		})
		if !ok {
			continue
		}
		b.Run("decompress/"+in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.src)))
			dst := make([]byte, len(in.src))
			for i := 0; i < b.N; i++ {
				if err := lz4Decompress(dst, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
