// Package dist is the transport of the distributed worker data plane:
// a coordinator-side Pool that ships KindRemote nodes to pash-serve
// workers, and the worker-side /exec handler that runs them. Planning
// (which subgraphs ship) lives in dfg.Distribute; local interpretation
// (the bottom rung of the recovery ladder) lives in
// runtime.ExecRemoteLocal. This package only moves plans and framed
// chunks over HTTP: session.go is the coordinator's single dispatch
// path, pool.go and prober.go keep membership and health, worker.go is
// the other end of the wire.
//
// # Wire format
//
// One /exec request executes one remote node. The request body is a
// sequence of frames, each an 8-byte header — a 4-byte big-endian
// payload length followed by a 4-byte big-endian CRC-32C (Castagnoli)
// of the payload — and then the payload:
//
//	frame 0:  the JSON handshake {"pash_wire":2, "features", "key",
//	          "env", "sandbox", "plan"} carrying the plan (a
//	          dfg.RemoteSpec), the coordinator's plan fingerprint (the
//	          worker plan-cache key), the request environment, the job's
//	          sandbox bit (the worker then confines the plan's file
//	          access to its own directory), and the frame features the
//	          coordinator offers
//	frame 1…: input chunks (zero-length frames are legal and meaningful
//	          — rotation tokens for framed plans, end-of-stream
//	          separators for streamed plans)
//
// Frame 0 is the handshake, full stop: there is one protocol and no
// negotiation of versions. A worker answers a frame 0 it cannot accept
// — not a handshake, an unknown feature, a plan that fails validation —
// with 400 before reading any input frame, and the coordinator treats
// that like any other failed dispatch. An accepted handshake is
// answered 200 with the accepted features echoed in X-Pash-Features
// and the plan-cache verdict in X-Pash-Plan-Cache.
//
// The response body is the same frame format carrying output chunks.
// For framed (chunk-relay) plans the worker emits exactly one output
// frame per input frame, in order — frame k of the response
// acknowledges frame k of the request, which is what makes bounded
// re-dispatch buffers possible. For file-range plans the request
// carries only the handshake and the response frames carry the
// transformed range in order. For streamed (contiguous-stream) plans
// the request carries each input stream's chunks in input order, a
// zero-length separator frame ending each stream, and the response is
// the node's single output stream. The exit status and any execution
// error arrive in HTTP trailers (X-Pash-Exit-Code, X-Pash-Error).
//
// # Compression
//
// When the handshake offers the "lz4" feature and the worker echoes it,
// every non-empty data frame's payload is tagged: a one-byte tag
// (0 = raw, 1 = lz4), then for lz4 a 4-byte big-endian decoded length
// and the LZ4 block. Zero-length frames (tokens, separators) stay bare
// in every mode. The CRC always covers the payload as transmitted — tag
// and compressed bytes — so a bit flip fails the checksum before the
// decompressor runs, and a corrupt block that somehow passes CRC still
// surfaces as ErrCorruptFrame from the lz4 decoder's bounds checks. The
// sender skips compression for incompressible payloads via a sampled
// ratio gate: after a few near-miss attempts it only re-samples every
// 16th frame until one compresses well again.
//
// The checksum is what makes the no-corruption guarantee hold against
// a misbehaving transport, not just a dead one: a frame that arrives
// bit-flipped fails its CRC and surfaces as ErrCorruptFrame — a stream
// error that sends the session to the next rung of the recovery ladder
// — instead of flowing downstream as silently wrong bytes. A stream
// that ends inside a frame surfaces as ErrTruncatedFrame, never as a
// clean EOF, so partial output cannot be mistaken for stream end.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/commands"
)

// maxFrame bounds a single frame payload; input chunks are ~64 KiB
// blocks and output chunks are one chunk's transformed bytes, so
// anything near this limit is a corrupt stream, not a big pipeline.
const maxFrame = 16 << 20

// ErrTruncatedFrame marks a stream that ended (or short-read) inside a
// frame — header or payload. It is always fatal for the stream: a
// truncated frame means bytes are missing, and treating it as a clean
// EOF would let partial output masquerade as complete output.
var ErrTruncatedFrame = errors.New("dist: truncated frame")

// ErrCorruptFrame marks a frame whose payload failed its CRC. Like
// truncation it is always fatal for the stream; the session
// re-dispatches, so a flipped bit on the wire costs a retry, never a
// wrong byte downstream.
var ErrCorruptFrame = errors.New("dist: corrupt frame")

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// writeFrame emits one length-prefixed, checksummed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into an owned block (pooled when it fits).
// io.EOF means a clean end of stream at a frame boundary — and only
// that; every partial read inside a frame comes back wrapping
// ErrTruncatedFrame, and a checksum mismatch wraps ErrCorruptFrame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		// Partial header: some frame bytes arrived, then the stream
		// ended or errored. Never let the underlying io.EOF flavor leak
		// through, or errors.Is(err, io.EOF) callers would mistake a
		// torn frame for stream end.
		return nil, fmt.Errorf("%w: header: %v", ErrTruncatedFrame, err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCorruptFrame, n)
	}
	var buf []byte
	if n <= commands.BlockSize {
		buf = commands.GetBlock()[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		commands.PutBlock(buf)
		// io.ReadFull reports io.EOF when zero payload bytes were
		// available and io.ErrUnexpectedEOF on a short read; both mean
		// the same thing here — the frame promised n bytes that never
		// arrived.
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncatedFrame, err)
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		commands.PutBlock(buf)
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return buf, nil
}

// wireVersion is the handshake's pash_wire value. There is one wire
// protocol; the number exists so a frame 0 from something else — a bare
// plan, a stray POST — is recognizably not a handshake.
const wireVersion = 2

// featureLZ4 names the tagged lz4 frame encoding in handshake feature
// lists and the X-Pash-Features header.
const featureLZ4 = "lz4"

// Data-frame payload tags under a negotiated frame-encoding feature.
const (
	tagRaw = 0x00
	tagLZ4 = 0x01
)

// wireHandshake is frame 0 of an /exec request. Plan is the env-free
// dfg.RemoteSpec; Env rides separately so workers can cache the decoded
// plan across requests with different environments. Key is the
// coordinator's plan fingerprint (empty disables worker caching).
// Sandbox is the job's sandbox bit: the worker confines the plan's file
// access to its own directory, as the coordinator confines the job's.
type wireHandshake struct {
	Wire     int               `json:"pash_wire"`
	Features []string          `json:"features,omitempty"`
	Key      string            `json:"key,omitempty"`
	Env      map[string]string `json:"env,omitempty"`
	Sandbox  bool              `json:"sandbox,omitempty"`
	Plan     json.RawMessage   `json:"plan,omitempty"`
}

// decodeHandshake parses frame 0, reporting false for anything that is
// not a handshake of this protocol.
func decodeHandshake(frame []byte) (*wireHandshake, bool) {
	var hs wireHandshake
	if err := json.Unmarshal(frame, &hs); err != nil || hs.Wire < wireVersion {
		return nil, false
	}
	return &hs, true
}

// Sampled ratio gate parameters: after gateMissLimit consecutive
// attempts that save less than 1/16, only every gateSampleEvery-th
// frame re-attempts compression.
const (
	gateMissLimit   = 4
	gateSampleEvery = 16
)

// compressor is one connection's send-side frame encoder: lz4 when
// negotiated and worthwhile, raw otherwise, with the sampled ratio
// gate deciding when "worthwhile" is even worth asking.
type compressor struct {
	enabled bool
	miss    int // consecutive poor-ratio attempts
	tick    int // frames since the last gated attempt
	scratch []byte
}

// writeDataFrame emits one data frame, compressing the payload when
// the connection negotiated it and the gate allows. It returns the
// on-the-wire payload size (tag and headers included) so callers can
// meter raw vs wire bytes. Zero-length frames are bare tokens in every
// mode.
func (c *compressor) writeDataFrame(w io.Writer, payload []byte) (int, error) {
	if c == nil || !c.enabled || len(payload) == 0 {
		if err := writeFrame(w, payload); err != nil {
			return 0, err
		}
		return len(payload), nil
	}
	if c.miss >= gateMissLimit {
		if c.tick++; c.tick < gateSampleEvery {
			return c.writeRawTagged(w, payload)
		}
		c.tick = 0
	}
	buf := append(c.scratch[:0], tagLZ4, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	buf, ok := lz4Compress(buf, payload)
	c.scratch = buf[:0]
	if !ok {
		c.miss++
		return c.writeRawTagged(w, payload)
	}
	c.miss = 0
	if err := writeFrame(w, buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// writeRawTagged emits a tag-prefixed uncompressed frame.
func (c *compressor) writeRawTagged(w io.Writer, payload []byte) (int, error) {
	buf := append(c.scratch[:0], tagRaw)
	buf = append(buf, payload...)
	c.scratch = buf[:0]
	if err := writeFrame(w, buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// decodeDataPayload interprets one data frame's payload as read off
// the wire: under a negotiated frame encoding (tagged=true) the
// payload carries a tag byte and possibly an lz4 block; otherwise it
// is the raw chunk. It returns the decoded chunk as an owned block
// (the input block is recycled whenever a new one is handed back) and
// the on-the-wire payload size. Malformed tagged payloads — unknown
// tag, impossible decoded length, a block that fails its bounds checks
// — surface as ErrCorruptFrame, keeping the transport's corruption
// taxonomy intact past the CRC.
func decodeDataPayload(payload []byte, tagged bool) ([]byte, int, error) {
	wire := len(payload)
	if !tagged || wire == 0 {
		return payload, wire, nil
	}
	switch payload[0] {
	case tagRaw:
		// Shift in place: the block stays owned by the caller.
		copy(payload, payload[1:])
		return payload[:wire-1], wire, nil
	case tagLZ4:
		if wire < 5 {
			commands.PutBlock(payload)
			return nil, wire, fmt.Errorf("%w: short lz4 frame", ErrCorruptFrame)
		}
		rawLen := binary.BigEndian.Uint32(payload[1:5])
		if rawLen == 0 || rawLen > maxFrame {
			commands.PutBlock(payload)
			return nil, wire, fmt.Errorf("%w: lz4 frame claims %d bytes", ErrCorruptFrame, rawLen)
		}
		var raw []byte
		if rawLen <= commands.BlockSize {
			raw = commands.GetBlock()[:rawLen]
		} else {
			raw = make([]byte, rawLen)
		}
		if err := lz4Decompress(raw, payload[5:]); err != nil {
			commands.PutBlock(raw)
			commands.PutBlock(payload)
			return nil, wire, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
		}
		commands.PutBlock(payload)
		return raw, wire, nil
	default:
		tag := payload[0]
		commands.PutBlock(payload)
		return nil, wire, fmt.Errorf("%w: unknown frame tag 0x%02x", ErrCorruptFrame, tag)
	}
}
