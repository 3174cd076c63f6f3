package serve

// POST /stream runs a script continuously over an unbounded input —
// the daemon face of the streaming execution subsystem. It shares
// /run's lifecycle (serveJob): the same admission, refunds, full duplex
// and trailers. The script must be streamable (one pipeline reading
// stdin, of stateless stages with an optional associative aggregation
// tail); anything else is rejected with 400 before the response
// commits, as are paths a sandboxed daemon refuses.
//
//	POST /stream?script=S                 body = the source; its EOF ends
//	                                      the stream cleanly (chunked
//	                                      uploads long-poll naturally)
//	POST /stream?script=S&follow=PATH     tail -F a server-side file
//	                                      (rotation detected); the job
//	                                      runs until the client hangs up
//
// Additional query parameters:
//
//	window=DUR        window time trigger (Go duration, default 1s)
//	window-bytes=N    window size trigger (deterministic boundaries)
//	checkpoint=PATH   checkpoint file (enables failover)
//	resume=1          resume from the checkpoint at PATH
//	width=N           as /run: each window's ceiling
//
// follow= and checkpoint= paths are relative to the session directory
// (pash-serve -dir). The response streams each window's emission as it
// is produced (delta output, or the running cumulative value per
// window). Streaming jobs appear in /metrics job rows with live
// rows/sec, window lag, and checkpoint age.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/pash"
)

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.serveJob(w, r, streamRequest, &s.streamJobs)
}

// streamRequest is what /stream takes from a request: the script from
// the query, and a stream over the body or the follow= file. Its paths
// go to Start as they are, which resolves them under the session
// directory and refuses, in a sandboxed job, those that leave it.
func streamRequest(w http.ResponseWriter, r *http.Request) (string, io.Reader, []pash.StartOption, bool) {
	q := r.URL.Query()
	script := q.Get("script")
	if script == "" {
		http.Error(w, "streaming requires script=... in the query (the body is the source)", http.StatusBadRequest)
		return "", nil, nil, false
	}
	sc := pash.StreamConfig{FollowPath: q.Get("follow"), CheckpointPath: q.Get("checkpoint")}
	if sc.FollowPath == "" {
		// The request body is the stream: a chunked upload feeds
		// windows as chunks arrive (long-poll), and body EOF ends the
		// job cleanly with exit 0.
		sc.Reader = r.Body
	}
	bad := func(format string, args ...any) (string, io.Reader, []pash.StartOption, bool) {
		http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
		return "", nil, nil, false
	}
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return bad("invalid window %q (want a positive duration)", v)
		}
		sc.Interval = d
	}
	if v := q.Get("window-bytes"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return bad("invalid window-bytes %q", v)
		}
		sc.WindowBytes = n
	}
	switch v := q.Get("resume"); v {
	case "", "0", "false", "off":
	case "1", "true", "on":
		sc.Resume = true
	default:
		return bad("invalid resume %q (want 1|0)", v)
	}
	return script, nil, []pash.StartOption{pash.WithStreamInput(sc)}, true
}
