package dist

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/commands"
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

// FuzzDataFrame exercises the data-frame layer above the frame codec:
// whatever a sender emits — raw-tagged, lz4, or bare (an empty frame) —
// must decode back to the original chunk, a raw one in its pooled
// block where it landed (no shift, no copy); arbitrary bytes presented
// as a data frame's payload must never panic and must fail only as
// ErrCorruptFrame; and a bit flip anywhere in an encoded frame must
// surface as corruption (CRC or lz4 bounds), never as different clean
// bytes.
func FuzzDataFrame(f *testing.F) {
	f.Add([]byte(""), true, byte(0))
	f.Add([]byte("hello hello hello hello hello hello hello"), true, byte(7))
	f.Add([]byte{tagLZ4, 0, 0, 0, 9, 0xff, 0xee}, false, byte(3))
	f.Add([]byte{tagRaw, 'o', 'k'}, true, byte(1))
	f.Add([]byte{tagRaw}, false, byte(2))
	f.Add(bytes.Repeat([]byte("GET /index.html HTTP/1.1 200\n"), 40), true, byte(5))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), commands.BlockSize/16), false, byte(9))
	f.Fuzz(func(t *testing.T, data []byte, slow bool, mut byte) {
		// Round trip through a real sender: on a link measured at 1 MB/s
		// the rule compresses whatever lz4 shrinks; on an unmeasured one
		// every frame goes raw.
		var buf bytes.Buffer
		comp := &compressor{w: &buf, flush: func() error { return nil }}
		if slow {
			comp.wire.add(1<<20, 0, time.Second)
		}
		wireN, err := comp.send(data)
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		if len(encoded) != 8+wireN {
			t.Fatalf("send reported %d wire bytes, frame carries %d", wireN, len(encoded)-8)
		}
		got, gotWire, err := readDataFrame(&buf)
		if err != nil {
			t.Fatalf("readDataFrame(own encoding): %v", err)
		}
		if gotWire != wireN || !bytes.Equal(got, data) {
			t.Fatalf("round trip mangled chunk: %d bytes in, %d out (wire %d vs %d)", len(data), len(got), wireN, gotWire)
		}
		switch {
		case len(data) == 0 && wireN != 0:
			t.Fatalf("empty chunk sent as a %d-byte payload, want a bare frame", wireN)
		case len(data) > 0 && encoded[8] == tagRaw && wireN != len(data)+1:
			t.Fatalf("raw frame of %d bytes costs %d on the wire, want %d", len(data), wireN, len(data)+1)
		case len(data) > 0 && encoded[8] == tagRaw && len(data) <= commands.BlockSize && cap(got) != commands.BlockSize:
			t.Fatalf("raw chunk of %d bytes decoded into a %d-byte buffer, not a pooled block", len(data), cap(got))
		case !slow && len(data) > 0 && encoded[8] != tagRaw:
			t.Fatalf("unmeasured link sent tag 0x%02x, want raw", encoded[8])
		}

		// Arbitrary bytes as a data frame's payload: no panic, and any
		// failure must keep the transport's corruption taxonomy.
		buf.Reset()
		writeFrame(&buf, data)
		if _, _, err := readDataFrame(&buf); err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("unclassified data-frame error: %v", err)
		}

		// A flipped bit in the encoded frame must never decode cleanly
		// into different bytes.
		flipped := append([]byte(nil), encoded...)
		pos := int(mut) % len(flipped)
		flipped[pos] ^= 1 << (mut % 8)
		if flipped[pos] == encoded[pos] {
			return
		}
		got, _, err = readDataFrame(bytes.NewReader(flipped))
		if err == nil && !bytes.Equal(got, data) {
			t.Fatalf("bit flip at %d decoded cleanly into different bytes", pos)
		}
		if err != nil && !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("flipped frame: unclassified error %v", err)
		}
	})
}
