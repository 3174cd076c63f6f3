package dist

import (
	"bytes"
	"errors"
	"io"
	"testing"
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

// FuzzDataFrame exercises the tagged data-frame layer above the
// frame codec: whatever a negotiated connection's compressor emits —
// raw-tagged, lz4, or bare (compression off / empty frame) — must
// decode back to the original payload; arbitrary bytes presented as a
// tagged payload must never panic and must fail only as ErrCorruptFrame;
// and a bit flip anywhere in an encoded compressed frame must surface
// as corruption (CRC or lz4 bounds), never as different clean bytes.
func FuzzDataFrame(f *testing.F) {
	f.Add([]byte(""), true, byte(0))
	f.Add([]byte("hello hello hello hello hello hello hello"), true, byte(7))
	f.Add([]byte{tagLZ4, 0, 0, 0, 9, 0xff, 0xee}, false, byte(3))
	f.Add([]byte{tagRaw, 'o', 'k'}, true, byte(1))
	f.Add(bytes.Repeat([]byte("GET /index.html HTTP/1.1 200\n"), 40), true, byte(5))
	f.Fuzz(func(t *testing.T, data []byte, compress bool, mut byte) {
		// Round trip through the negotiated encoding. decodeDataPayload
		// takes ownership of the block it is handed and may recycle it,
		// so feed it copies.
		comp := &compressor{enabled: compress}
		var buf bytes.Buffer
		wireN, err := comp.writeDataFrame(&buf, data)
		if err != nil {
			t.Fatalf("writeDataFrame: %v", err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if len(payload) != wireN {
			t.Fatalf("writeDataFrame reported %d wire bytes, frame carries %d", wireN, len(payload))
		}
		tagged := compress && len(data) > 0
		got, gotWire, err := decodeDataPayload(payload, tagged)
		if err != nil {
			t.Fatalf("decodeDataPayload(own encoding): %v", err)
		}
		if gotWire != wireN || !bytes.Equal(got, data) {
			t.Fatalf("tagged round trip mangled payload: %d bytes in, %d out (wire %d vs %d)",
				len(data), len(got), wireN, gotWire)
		}

		// Arbitrary bytes as a tagged payload: no panic, and any failure
		// must keep the transport's corruption taxonomy.
		if _, _, err := decodeDataPayload(append([]byte(nil), data...), true); err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("unclassified tagged-payload error: %v", err)
		}

		// A flipped bit in the encoded frame must never decode cleanly
		// into different bytes.
		flipped := append([]byte(nil), encoded...)
		pos := int(mut) % len(flipped)
		flipped[pos] ^= 1 << (mut % 8)
		if flipped[pos] == encoded[pos] {
			return
		}
		payload, err = readFrame(bytes.NewReader(flipped))
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("flipped frame: unclassified error %v", err)
			}
			return
		}
		got, _, err = decodeDataPayload(payload, tagged)
		if err == nil && !bytes.Equal(got, data) {
			t.Fatalf("bit flip at %d decoded cleanly into different bytes", pos)
		}
		if err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flipped payload: unclassified error %v", err)
		}
	})
}
