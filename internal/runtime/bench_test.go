package runtime

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/commands"
)

// BenchmarkPipeThroughput compares the two ways bytes cross an edge:
//
//	copy  — the classic copy-through path (Write stages into blocks,
//	        Read copies back out): two copies per byte, like the old
//	        single-buffer pipe.
//	chunk — the ownership-transfer path (WriteChunk/ReadChunk): the
//	        block the producer filled is the block the consumer reads.
//
// The acceptance bar for the chunked data plane is chunk >= 2x copy on
// 64 KiB blocks.
func BenchmarkPipeThroughput(b *testing.B) {
	const block = commands.BlockSize
	const bound = 16 * block // amortize wakeups across a window of blocks
	payload := bytes.Repeat([]byte{'z'}, block)

	b.Run("copy", func(b *testing.B) {
		p := newPipe(bound)
		b.SetBytes(block)
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, block)
			for {
				_, err := p.Read(buf)
				if err == io.EOF {
					return
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Write(payload); err != nil {
				b.Fatal(err)
			}
		}
		p.CloseWrite()
		<-done
	})

	b.Run("chunk", func(b *testing.B) {
		p := newPipe(bound)
		b.SetBytes(block)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				blk, release, err := p.ReadChunk()
				if err == io.EOF {
					return
				}
				if err != nil {
					b.Error(err)
					return
				}
				_ = blk
				release()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := commands.GetBlock()[:block]
			if err := p.WriteChunk(blk); err != nil {
				b.Fatal(err)
			}
		}
		p.CloseWrite()
		<-done
	})
}

// benchSplitInput builds ~4 MiB of line data.
func benchSplitInput() []byte {
	var sb bytes.Buffer
	line := strings.Repeat("benchmark words flowing by ", 3) + "\n"
	for sb.Len() < 4<<20 {
		sb.WriteString(line)
	}
	return sb.Bytes()
}

// drainStreams consumes every split output concurrently via the chunk
// fast path.
func drainStreams(streams []*edgeStream) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var inner [16]chan struct{}
		for i, s := range streams {
			ch := make(chan struct{})
			inner[i] = ch
			go func(r readEnd, ch chan struct{}) {
				defer close(ch)
				for {
					_, release, err := r.ReadChunk()
					if err != nil {
						return
					}
					release()
				}
			}(readEnd{s.p}, ch)
		}
		for i := range streams {
			<-inner[i]
		}
	}()
	return done
}

// BenchmarkSplitStrategies compares the three split implementations on
// the same workload at width 4: the barrier GeneralSplit, the streaming
// roundRobinSplit, and the seek-based fileSplit.
func BenchmarkSplitStrategies(b *testing.B) {
	input := benchSplitInput()
	const width = 4

	run := func(b *testing.B, split func(ws []io.WriteCloser) error) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			streams := make([]*edgeStream, width)
			ws := make([]io.WriteCloser, width)
			for j := range streams {
				streams[j] = newEdgeStream(false, 0) // bounded: real backpressure
				ws[j] = streams[j].writer()
			}
			done := drainStreams(streams)
			if err := split(ws); err != nil {
				b.Fatal(err)
			}
			<-done
		}
	}

	b.Run("general", func(b *testing.B) {
		run(b, func(ws []io.WriteCloser) error {
			return GeneralSplit(bytes.NewReader(input), ws)
		})
	})
	b.Run("round-robin", func(b *testing.B) {
		run(b, func(ws []io.WriteCloser) error {
			return roundRobinSplit(bytes.NewReader(input), ws)
		})
	})
	b.Run("file", func(b *testing.B) {
		dir := b.TempDir()
		path := filepath.Join(dir, "in.txt")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			b.Fatal(err)
		}
		run(b, func(ws []io.WriteCloser) error {
			return fileSplit(commands.OSFS{}, path, ws)
		})
	})
}
