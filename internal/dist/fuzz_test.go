package dist

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/commands"
	"repro/internal/dfg"
)

// FuzzFrame exercises the frame codec three ways per input: a
// write/read round-trip must be lossless; parsing the raw fuzz bytes as
// a frame stream must never panic and must never report a clean EOF
// unless the stream really ended at a frame boundary; and a valid frame
// damaged by truncation or a single bit flip must be rejected — as
// ErrTruncatedFrame or ErrCorruptFrame, never as io.EOF and never as a
// successful parse of different bytes.
func FuzzFrame(f *testing.F) {
	f.Add([]byte(""), byte(0))
	f.Add([]byte("hello frames"), byte(3))
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 'a', 'b', 'c', 'd'}, byte(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(9))
	f.Fuzz(func(t *testing.T, data []byte, mut byte) {
		// Round trip: whatever bytes go in come back out.
		var buf bytes.Buffer
		if err := writeFrame(&buf, data); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame(writeFrame(%d bytes)): %v", len(data), err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mangled payload: %d bytes in, %d out", len(data), len(got))
		}
		if rest, err := readFrame(&buf); err != io.EOF {
			t.Fatalf("trailing read: got (%d bytes, %v), want io.EOF", len(rest), err)
		}

		// Raw bytes as a stream: drain frames until an error. A clean
		// io.EOF is only legal when the remaining stream is empty —
		// anything else must classify as truncated or corrupt.
		r := bytes.NewReader(data)
		for i := 0; i < 1000; i++ {
			before := r.Len()
			_, err := readFrame(r)
			if err == nil {
				continue
			}
			if err == io.EOF {
				if before != 0 {
					t.Fatalf("clean EOF with %d unconsumed bytes in a torn frame", before)
				}
			} else if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("unclassified frame error: %v", err)
			}
			if errors.Is(err, io.EOF) && err != io.EOF {
				t.Fatalf("frame error %v leaks io.EOF to errors.Is", err)
			}
			break
		}

		// Damage the valid encoding. Truncation anywhere inside must
		// never parse and never look like clean stream end.
		if cut := int(mut) % len(encoded); cut > 0 {
			if _, err := readFrame(bytes.NewReader(encoded[:cut])); err == nil || err == io.EOF {
				t.Fatalf("truncated at %d/%d bytes: got %v, want truncation error", cut, len(encoded), err)
			}
		}
		// A flipped bit must fail the checksum (or the header sanity
		// checks); it must never come back as a clean, different payload.
		flipped := append([]byte(nil), encoded...)
		pos := int(mut) % len(flipped)
		flipped[pos] ^= 1 << (mut % 8)
		if flipped[pos] != encoded[pos] {
			got, err := readFrame(bytes.NewReader(flipped))
			if err == nil && !bytes.Equal(got, data) {
				t.Fatalf("bit flip at %d parsed cleanly into different bytes", pos)
			}
			if err == io.EOF {
				t.Fatalf("bit flip at %d reported clean EOF", pos)
			}
		}
	})
}

// FuzzDataFrame exercises data frames as a sender streams them: the
// chunk of data, whole or cut in two, then the bare separator, each
// frame written and flushed on its own. Read back, the stream must give
// the chunks unchanged — each in a pooled block when it fits, at
// exactly its length plus the 8-byte header on the wire — then the
// separator, then a clean EOF. A cut anywhere but a frame boundary must
// read as ErrTruncatedFrame, and a flipped bit must surface as
// ErrCorruptFrame or ErrTruncatedFrame, never as different clean bytes.
func FuzzDataFrame(f *testing.F) {
	f.Add([]byte(""), true, byte(0))
	f.Add([]byte("hello hello hello hello hello hello hello"), true, byte(7))
	f.Add([]byte{0x01, 0, 0, 0, 9, 0xff, 0xee}, false, byte(3))
	f.Add([]byte{0x00, 'o', 'k'}, true, byte(1))
	f.Add([]byte{0x00}, false, byte(2))
	f.Add(bytes.Repeat([]byte("GET /index.html HTTP/1.1 200\n"), 40), true, byte(5))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), commands.BlockSize/16), false, byte(9))
	f.Fuzz(func(t *testing.T, data []byte, split bool, mut byte) {
		var chunks [][]byte
		if cut := int(mut) % (len(data) + 1); split && cut > 0 && cut < len(data) {
			chunks = [][]byte{data[:cut], data[cut:]}
		} else if len(data) > 0 {
			chunks = [][]byte{data}
		}
		var buf bytes.Buffer
		flushes := 0
		flush := func() error { flushes++; return nil }
		var ends []int // stream offset after each frame
		for _, c := range append(chunks, nil) {
			if err := sendFrame(&buf, flush, c); err != nil {
				t.Fatalf("sendFrame: %v", err)
			}
			ends = append(ends, buf.Len())
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		if flushes != len(chunks)+1 {
			t.Fatalf("%d flushes for %d frames, want one each", flushes, len(chunks)+1)
		}
		if want := frameHeader*(len(chunks)+1) + len(data); len(encoded) != want {
			t.Fatalf("stream of %d chunk bytes is %d bytes on the wire, want %d", len(data), len(encoded), want)
		}

		for i, c := range append(chunks, nil) {
			got, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(got, c) {
				t.Fatalf("frame %d: %d bytes in, %d out", i, len(c), len(got))
			}
			if len(c) <= commands.BlockSize && cap(got) != commands.BlockSize {
				t.Fatalf("frame %d: %d bytes read into a %d-byte buffer, not a pooled block", i, len(c), cap(got))
			}
			commands.PutBlock(got)
		}
		if rest, err := readFrame(&buf); err != io.EOF {
			t.Fatalf("after the separator: got (%d bytes, %v), want io.EOF", len(rest), err)
		}

		// drain reads frames until the first error, which it returns.
		drain := func(b []byte) error {
			r := bytes.NewReader(b)
			for {
				fr, err := readFrame(r)
				if err != nil {
					return err
				}
				commands.PutBlock(fr)
			}
		}
		if cut := int(mut) * 131 % len(encoded); cut > 0 {
			err := drain(encoded[:cut])
			if slices.Contains(ends, cut) {
				if err != io.EOF {
					t.Fatalf("cut at frame boundary %d: got %v, want io.EOF", cut, err)
				}
			} else if !errors.Is(err, ErrTruncatedFrame) || errors.Is(err, io.EOF) {
				t.Fatalf("cut at %d/%d bytes: got %v, want a truncation error", cut, len(encoded), err)
			}
		}

		flipped := append([]byte(nil), encoded...)
		pos := int(mut) % len(flipped)
		flipped[pos] ^= 1 << (mut % 8)
		if flipped[pos] == encoded[pos] {
			return
		}
		r := bytes.NewReader(flipped)
		for i := 0; ; i++ {
			got, err := readFrame(r)
			if err == io.EOF {
				t.Fatalf("bit flip at %d: stream read cleanly to its end", pos)
			}
			if err != nil {
				if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTruncatedFrame) {
					t.Fatalf("bit flip at %d: unclassified error %v", pos, err)
				}
				break
			}
			if i > len(chunks) || !bytes.Equal(got, append(chunks, nil)[i]) {
				t.Fatalf("bit flip at %d: frame %d decoded cleanly into different bytes", pos, i)
			}
		}
	})
}

// FuzzDecodePlan fuzzes the worker's plan parser, which reads network
// input. It must never panic; a plan it accepts names non-empty stages
// and exactly one shape (a valid file range, or streamed); and an
// accepted plan survives EncodePlan → DecodePlan unchanged.
func FuzzDecodePlan(f *testing.F) {
	f.Add([]byte(`{"stages":[{"name":"tr","args":["a-z","A-Z"]}],"streamed":true,"key":"k"}`))
	f.Add([]byte(`{"stages":[{"name":"grep","args":["x"]}],"path":"in.txt","slice":1,"of":3}`))
	f.Add([]byte(`{"streamed":true,"branches":[[{"name":"sort"}]],"agg":{"name":"sort","args":["-m"]}}`))
	f.Add([]byte(`{"stages":[{"name":"tr"}],"framed":true}`))
	f.Add([]byte(`{"stages":[{"name":""}],"streamed":true,"env":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := dfg.DecodePlan(data)
		if err != nil {
			return
		}
		if len(spec.Stages) == 0 {
			t.Fatalf("accepted a plan with no stages: %q", data)
		}
		for _, st := range spec.Stages {
			if st.Name == "" {
				t.Fatalf("accepted a stage with no name: %q", data)
			}
		}
		fileRange := spec.Path != "" && spec.Of >= 1 && spec.Slice >= 0 && spec.Slice < spec.Of
		if fileRange == spec.Streamed {
			t.Fatalf("accepted plan does not name exactly one valid shape: %+v", spec)
		}
		enc, err := dfg.EncodePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := dfg.DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted plan: %v", err)
		}
		if enc2, _ := dfg.EncodePlan(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the plan:\n%s\n%s", enc, enc2)
		}
	})
}
