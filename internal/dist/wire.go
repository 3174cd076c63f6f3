// Package dist is the transport of the distributed worker data plane:
// a coordinator-side Pool that ships KindRemote nodes to pash-serve
// workers, and the worker-side /exec handler that runs them. Planning
// (which subgraphs ship) lives in dfg.Distribute; local interpretation
// (the bottom rung of the recovery ladder) lives in
// runtime.ExecRemoteLocal. This package only moves plans and framed
// chunks over HTTP — a file range or a whole stream per remote node:
// session.go is the coordinator's single dispatch path, pool.go and
// prober.go keep membership and health, worker.go is the other end of
// the wire.
//
// # Wire format
//
// One /exec request executes one remote node. The request body is a
// sequence of frames, each an 8-byte header — a 4-byte big-endian
// payload length followed by a 4-byte big-endian CRC-32C (Castagnoli)
// of the payload — and then the payload:
//
//	frame 0:  the JSON handshake {"pash_wire":3, "key", "env",
//	          "sandbox", "plan"}: the plan (a dfg.RemoteSpec), the
//	          worker plan-cache key, the request environment, and the
//	          job's sandbox bit (the worker then jails the plan's files)
//	frame 1…: input chunks (a zero-length frame is the end-of-stream
//	          separator of a streamed plan's input)
//
// Frame 0 is the handshake, full stop: there is one protocol, no
// negotiation of versions and no feature list. A worker answers a frame
// 0 it cannot accept — not a handshake, another pash_wire version, a
// plan that fails validation — with 400 before reading any input
// frame, and the coordinator treats that like any other failed
// dispatch. An accepted handshake is answered 200 with the plan-cache
// verdict in X-Pash-Plan-Cache.
//
// The response body is the same frame format carrying output chunks.
// Every plan is one of two shapes (dfg.DecodePlan refuses a plan that
// names neither). For file-range plans the request carries only the
// handshake and the response frames carry the transformed range in
// order. For streamed (contiguous-stream) plans
// the request carries each input stream's chunks in input order, a
// zero-length separator frame ending each stream, and the response is
// the node's single output stream. The exit status and any execution
// error arrive in HTTP trailers (X-Pash-Exit-Code, X-Pash-Error).
//
// # Data frames
//
// A data frame, in either direction, is a plain frame: the header, then
// the chunk, with nothing rewritten in between — the receiver reads the
// payload straight into the block it hands downstream. A zero-length
// frame is the separator that ends a streamed input. Each sender writes
// and flushes one frame at a time, so a chunk never waits in a buffer
// for the next. The CRC covers the payload, so a bit flip surfaces as
// ErrCorruptFrame — a stream error that moves the session down the
// recovery ladder, never wrong bytes downstream. A stream that ends
// inside a frame is ErrTruncatedFrame, never a clean EOF, so partial
// output cannot be mistaken for stream end. Frames are not compressed:
// on the loopback and unix-socket links workers run over, the wire
// moves bytes faster than a codec could shrink them.
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

// frameHeader is the size of a frame's header: what a frame costs on
// the wire beyond its payload.
const frameHeader = 8

// writeFrame emits one length-prefixed, checksummed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeader]byte
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

// readHeader reads one frame header. io.EOF means a clean end of stream
// at a frame boundary — and only that; a partial header wraps
// ErrTruncatedFrame, and an impossible length ErrCorruptFrame.
func readHeader(r io.Reader) (n int, sum uint32, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		// Partial header: some frame bytes arrived, then the stream
		// ended or errored. Never let the underlying io.EOF flavor leak
		// through, or errors.Is(err, io.EOF) callers would mistake a
		// torn frame for stream end.
		return 0, 0, fmt.Errorf("%w: header: %v", ErrTruncatedFrame, err)
	}
	if n = int(binary.BigEndian.Uint32(hdr[:4])); n > maxFrame {
		return 0, 0, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrCorruptFrame, n)
	}
	return n, binary.BigEndian.Uint32(hdr[4:]), nil
}

// readFrame reads one frame into an owned block, pooled when it fits.
func readFrame(r io.Reader) ([]byte, error) {
	n, sum, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if n <= commands.BlockSize {
		buf = commands.GetBlock()[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		commands.PutBlock(buf)
		// io.EOF (nothing came) and io.ErrUnexpectedEOF (a short read)
		// mean the same here: the frame promised bytes that never came.
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncatedFrame, err)
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		commands.PutBlock(buf)
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return buf, nil
}

// sendFrame writes one frame and flushes it.
func sendFrame(w io.Writer, flush func() error, payload []byte) error {
	if err := writeFrame(w, payload); err != nil {
		return err
	}
	return flush()
}

// wireVersion is the handshake's pash_wire value. There is one wire
// protocol; the number exists so a frame 0 from something else — a bare
// plan, a stray POST, a peer speaking another version of the frames —
// is recognizably not a handshake. Version 2 tagged every data frame;
// a version-2 peer would take a chunk's first byte for a tag.
const wireVersion = 3

// wireHandshake is frame 0 of an /exec request. Plan is the env-free
// dfg.RemoteSpec; Env rides separately so workers can cache the decoded
// plan across requests with different environments. Key is the
// coordinator's plan fingerprint (empty disables worker caching).
// Sandbox is the job's sandbox bit: the worker confines the plan's file
// access to its own directory, as the coordinator confines the job's.
type wireHandshake struct {
	Wire    int               `json:"pash_wire"`
	Key     string            `json:"key,omitempty"`
	Env     map[string]string `json:"env,omitempty"`
	Sandbox bool              `json:"sandbox,omitempty"`
	Plan    json.RawMessage   `json:"plan,omitempty"`
}

// decodeHandshake parses frame 0, reporting false for anything that is
// not a handshake of this protocol version, older or newer.
func decodeHandshake(frame []byte) (*wireHandshake, bool) {
	var hs wireHandshake
	if err := json.Unmarshal(frame, &hs); err != nil || hs.Wire != wireVersion {
		return nil, false
	}
	return &hs, true
}
