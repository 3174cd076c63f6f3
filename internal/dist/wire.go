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
//	frame 0:  the JSON handshake {"pash_wire":2, "key", "env",
//	          "sandbox", "plan"}: the plan (a dfg.RemoteSpec), the
//	          worker plan-cache key, the request environment, and the
//	          job's sandbox bit (the worker then jails the plan's files)
//	frame 1…: input chunks (a zero-length frame is the end-of-stream
//	          separator of a streamed plan's input)
//
// Frame 0 is the handshake, full stop: there is one protocol, no
// negotiation of versions and no feature list. A worker answers a frame
// 0 it cannot accept — not a handshake, a plan that fails validation —
// with 400 before reading any input frame, and the coordinator treats
// that like any other failed dispatch. An accepted handshake is
// answered 200 with the plan-cache verdict in X-Pash-Plan-Cache.
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
// Every non-empty data frame, in both directions, is tagged: one byte
// (0 = raw, 1 = lz4), then the chunk, or a 4-byte big-endian decoded
// length and its LZ4 block; zero-length frames (separators) stay bare.
// Tag and body are written and read apart under one running CRC, so a
// raw frame costs one byte and no copy. Each sender decides
// per frame from its own measurements (compressWins). The CRC covers
// the payload as sent, so a bit flip fails it before the decompressor
// runs and surfaces as ErrCorruptFrame — a stream error that moves the
// session down the recovery ladder, never wrong bytes downstream — as
// does a block that passes CRC but fails the decoder's bounds checks. A
// stream that ends inside a frame is ErrTruncatedFrame, never a clean
// EOF, so partial output cannot be mistaken for stream end.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"time"

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

// Data-frame payload tags.
const (
	tagRaw = 0x00
	tagLZ4 = 0x01
)

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

// writeData emits one non-empty data frame whose payload is tag then
// body, checksummed across both without assembling them.
func writeData(w io.Writer, tag byte, body []byte) error {
	var hdr [9]byte
	hdr[8] = tag
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Update(crc32.Checksum(hdr[8:], castagnoli), castagnoli, body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readHeader reads one frame header. io.EOF means a clean end of stream
// at a frame boundary — and only that; a partial header wraps
// ErrTruncatedFrame, and an impossible length ErrCorruptFrame.
func readHeader(r io.Reader) (n int, sum uint32, err error) {
	var hdr [8]byte
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

// ownedBlock returns an n-byte block, pooled when it fits.
func ownedBlock(n int) []byte {
	if n <= commands.BlockSize {
		return commands.GetBlock()[:n]
	}
	return make([]byte, n)
}

// readBody reads n payload bytes into an owned block and checks them
// against sum, continuing a CRC already run over crc's bytes.
func readBody(r io.Reader, n int, crc, sum uint32) ([]byte, error) {
	buf := ownedBlock(n)
	if _, err := io.ReadFull(r, buf); err != nil {
		commands.PutBlock(buf)
		// io.EOF (nothing came) and io.ErrUnexpectedEOF (a short read)
		// mean the same here: the frame promised bytes that never came.
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncatedFrame, err)
	}
	if crc32.Update(crc, castagnoli, buf) != sum {
		commands.PutBlock(buf)
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
	}
	return buf, nil
}

// readFrame reads one frame into an owned block (pooled when it fits).
func readFrame(r io.Reader) ([]byte, error) {
	n, sum, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	return readBody(r, n, 0, sum)
}

// readDataFrame reads and decodes one data frame: the chunk as an owned
// block — a raw one read straight into it — and the payload size as
// sent (0 for a bare frame). A malformed payload (unknown tag, empty
// body, impossible length, a block failing its bounds checks) is
// ErrCorruptFrame, keeping the corruption taxonomy intact past the CRC.
func readDataFrame(r io.Reader) (chunk []byte, wire int, err error) {
	n, sum, err := readHeader(r)
	if err == nil && n == 0 {
		chunk, err = readBody(r, 0, 0, sum)
	}
	if err != nil || n == 0 {
		return chunk, 0, err
	}
	var tag [1]byte
	if _, err := io.ReadFull(r, tag[:]); err != nil {
		return nil, n, fmt.Errorf("%w: payload: %v", ErrTruncatedFrame, err)
	}
	body, err := readBody(r, n-1, crc32.Checksum(tag[:], castagnoli), sum)
	if err != nil {
		return nil, n, err
	}
	switch {
	case tag[0] == tagRaw && len(body) > 0:
		return body, n, nil
	case tag[0] == tagLZ4 && len(body) > 4:
		defer commands.PutBlock(body)
		rawLen := binary.BigEndian.Uint32(body)
		if rawLen == 0 || rawLen > maxFrame {
			return nil, n, fmt.Errorf("%w: lz4 frame claims %d bytes", ErrCorruptFrame, rawLen)
		}
		raw := ownedBlock(int(rawLen))
		if err := lz4Decompress(raw, body[4:]); err != nil {
			commands.PutBlock(raw)
			return nil, n, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
		}
		return raw, n, nil
	}
	commands.PutBlock(body)
	return nil, n, fmt.Errorf("%w: frame tag 0x%02x with %d-byte body", ErrCorruptFrame, tag[0], n-1)
}

// wireVersion is the handshake's pash_wire value. There is one wire
// protocol; the number exists so a frame 0 from something else — a bare
// plan, a stray POST — is recognizably not a handshake.
const wireVersion = 2

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
// not a handshake of this protocol.
func decodeHandshake(frame []byte) (*wireHandshake, bool) {
	var hs wireHandshake
	if err := json.Unmarshal(frame, &hs); err != nil || hs.Wire < wireVersion {
		return nil, false
	}
	return &hs, true
}

// compressWins is the rule: a frame goes lz4 only when the wire is
// slower than the codec takes bytes off it, wire < codec × (1 − ratio)
// (raw costs n/wire, lz4 n/codec + n·ratio/wire), and lz4 saves the
// 1/16 lz4Compress insists on. Rates are bytes per second; zero means
// unknown, and unknown means raw.
func compressWins(wire, codec, ratio float64) bool {
	return wire > 0 && codec > 0 && ratio < 15.0/16 && wire < codec*(1-ratio)
}

const windowLen = 32

// window keeps the last windowLen observations of a transfer and their
// sum: bytes in, bytes out (a codec's compressed size; a wire leaves it
// zero) and the time taken.
type window struct {
	obs     [windowLen]sample
	next, n int
	sum     sample
}

type sample struct{ in, out, ns int64 }

func (w *window) add(in, out int, d time.Duration) {
	old, s := w.obs[w.next], sample{int64(in), int64(out), int64(d)}
	w.sum = sample{w.sum.in + s.in - old.in, w.sum.out + s.out - old.out, w.sum.ns + s.ns - old.ns}
	w.obs[w.next] = s
	w.next = (w.next + 1) % windowLen
	w.n = min(w.n+1, windowLen)
}

// adopt folds into w the last fresh observations of from: what one
// link measured after it was seeded from w.
func (w *window) adopt(from *window, fresh int) {
	for i := min(fresh, windowLen); i > 0; i-- {
		s := from.obs[(from.next-i+windowLen)%windowLen]
		w.add(int(s.in), int(s.out), time.Duration(s.ns))
	}
}

// wireRate is a link's bytes per second (0 = unknown), with the
// observations its window still lacks counted as free. A stall is
// spread over windowLen frames from the first frame on, so it flips a
// fast link only if it lasts as long as a full window takes at the
// break-even rate, while a link slow on every frame shows within a few.
func (w *window) wireRate() float64 {
	if w.n == 0 || w.sum.ns <= 0 {
		return 0
	}
	return float64(w.sum.in) / float64(w.sum.ns) * 1e9 * windowLen / float64(w.n)
}

// codec is this process's lz4 as measured on its last compressions,
// whichever connection ran them.
var codec struct {
	sync.Mutex
	window
}

// codecStats returns the codec's rate in input bytes per second (0 =
// unknown) — the median of its compressions' rates, so neither a cold
// first one nor a preempted one stands for the codec — and its ratio,
// compressed over input bytes.
func codecStats() (rate, ratio float64) {
	codec.Lock()
	defer codec.Unlock()
	if codec.n == 0 {
		return 0, 1
	}
	var rates [windowLen]float64
	for i, s := range codec.obs[:codec.n] {
		rates[i] = float64(s.in) / float64(max(s.ns, 1)) * 1e9
	}
	slices.Sort(rates[:codec.n])
	return rates[codec.n/2], float64(codec.sum.out) / float64(codec.sum.in)
}

// resampleEvery paces the compressions a link runs only to learn.
const resampleEvery = 16

// compressor is one connection's send side. It writes and flushes each
// data frame, timing only that, so its wire window is this link's bytes
// per second of time blocked in the socket — not a wait for upstream
// input. Per frame it applies compressWins to that window and the
// codec's. It compresses to learn when it must: while
// the codec is unknown, and every resampleEvery-th frame while the wire
// is slower than the codec but the ratio says raw; what it learned
// goes out as lz4 only if the rule then agrees.
type compressor struct {
	w         io.Writer
	flush     func() error
	wire      window
	frames    int // data frames sent, each one observation in wire
	lz4Frames int64
	scratch   []byte
}

// send writes one data frame and flushes it, returning the payload size
// as transmitted. A zero-length payload is a bare separator.
func (c *compressor) send(payload []byte) (int, error) {
	if len(payload) == 0 {
		if err := writeFrame(c.w, nil); err != nil {
			return 0, err
		}
		return 0, c.flush()
	}
	tag, body := c.encode(payload)
	start := time.Now()
	err := writeData(c.w, tag, body)
	if err == nil {
		err = c.flush()
	}
	if err != nil {
		return 0, err
	}
	c.wire.add(1+len(body), 0, time.Since(start))
	c.frames++
	return 1 + len(body), nil
}

// encode picks the frame's tag and body.
func (c *compressor) encode(payload []byte) (byte, []byte) {
	if len(payload) < lz4MinInput {
		return tagRaw, payload
	}
	wire := c.wire.wireRate()
	rate, ratio := codecStats()
	learn := wire > 0 && (rate == 0 || wire < rate && c.frames%resampleEvery == 0)
	if !compressWins(wire, rate, ratio) && !learn {
		return tagRaw, payload
	}
	packed, ok := c.compress(payload)
	if rate, ratio = codecStats(); !ok || !compressWins(wire, rate, ratio) {
		return tagRaw, payload
	}
	c.lz4Frames++
	return tagLZ4, packed
}

// compress runs lz4 over payload into scratch, behind the 4-byte
// decoded length, and feeds the codec window; a refused block counts as
// saving nothing.
func (c *compressor) compress(payload []byte) ([]byte, bool) {
	buf := binary.BigEndian.AppendUint32(c.scratch[:0], uint32(len(payload)))
	start := time.Now()
	buf, ok := lz4Compress(buf, payload)
	d := time.Since(start)
	c.scratch = buf[:0]
	out := len(payload)
	if ok {
		out = len(buf)
	}
	codec.Lock()
	codec.add(len(payload), out, d)
	codec.Unlock()
	return buf, ok
}
