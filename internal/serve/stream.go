package serve

// POST /stream runs a script continuously over an unbounded input —
// the daemon face of the streaming execution subsystem. The script
// must be streamable (stateless stages with an optional associative
// aggregation tail); anything else is rejected with 400 before the
// response commits.
//
//	POST /stream?script=S                 body = the source; its EOF ends
//	                                      the stream cleanly (chunked
//	                                      uploads long-poll naturally)
//	POST /stream?script=S&follow=/path    tail -F a server-side file
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
// The response streams each window's emission as it is produced
// (delta output, or the running cumulative value per window) and
// carries the final exit status in trailers like /run. Streaming jobs
// appear in /metrics job rows with live rows/sec, window lag, and
// checkpoint age.

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/pash"
)

// streamConfigFromQuery parses the /stream-specific parameters.
func streamConfigFromQuery(r *http.Request) (pash.StreamConfig, error) {
	q := r.URL.Query()
	var sc pash.StreamConfig
	sc.FollowPath = q.Get("follow")
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return sc, fmt.Errorf("invalid window %q (want a positive duration)", v)
		}
		sc.Interval = d
	}
	if v := q.Get("window-bytes"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return sc, fmt.Errorf("invalid window-bytes %q", v)
		}
		sc.WindowBytes = n
	}
	if v := q.Get("checkpoint"); v != "" {
		sc.CheckpointPath = v
	}
	switch q.Get("resume") {
	case "", "0", "false", "off":
	case "1", "true", "on":
		if sc.CheckpointPath == "" {
			return sc, errors.New("resume=1 requires checkpoint=PATH")
		}
		sc.Resume = true
	default:
		return sc, fmt.Errorf("invalid resume %q (want 1|0)", q.Get("resume"))
	}
	return sc, nil
}

// confinePath enforces the sandbox on daemon-side file parameters: with
// sandboxed default limits, follow and checkpoint paths must stay under
// the session directory.
func (s *Server) confinePath(p string) error {
	if !s.limits.Sandbox || p == "" {
		return nil
	}
	abs, err := filepath.Abs(p)
	if err != nil {
		return err
	}
	root, err := filepath.Abs(s.sess.Dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return fmt.Errorf("path %s escapes the sandboxed session directory", p)
	}
	return nil
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	if s.draining.Load() {
		s.shedCapacity(w, "draining")
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)

	script := r.URL.Query().Get("script")
	if script == "" {
		http.Error(w, "streaming requires script=... in the query (the body is the source)", http.StatusBadRequest)
		return
	}
	sc, err := streamConfigFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.confinePath(sc.FollowPath); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.confinePath(sc.CheckpointPath); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if sc.FollowPath == "" {
		// The request body is the stream: a chunked upload feeds
		// windows as chunks arrive (long-poll), and body EOF ends the
		// job cleanly with exit 0.
		sc.Reader = r.Body
	}

	// Reject unstreamable scripts with a clean 400 while the status
	// line can still say so.
	if err := s.sess.CheckStream(script); err != nil {
		status := http.StatusBadRequest
		if !errors.Is(err, pash.ErrNotStreamable) {
			status = http.StatusInternalServerError
		}
		http.Error(w, err.Error(), status)
		return
	}

	startOpts := []pash.StartOption{pash.WithStreamInput(sc)}
	if o, err := requestOptions(s.sess, r); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	} else if o != nil {
		startOpts = append(startOpts, pash.WithOptions(*o))
	}
	if !s.limits.Zero() {
		startOpts = append(startOpts, pash.WithLimits(s.limits))
	}

	// Admission mirrors /run: tenant quota/rate gates, then scheduler
	// admission under the tenant's key, all decided before the response
	// commits. The job holds the slot for its whole (unbounded) life,
	// but width tokens only while a window runs: each window is a region
	// with its own grant.
	tenant, trow, admitRelease, ok := s.admitFrontDoor(w, r)
	if !ok {
		return
	}
	startOpts = append(startOpts, pash.WithTenant(tenant))
	if admitRelease != nil {
		startOpts = append(startOpts, pash.WithAdmitted(admitRelease))
	}

	// Emissions stream down while (in body-source mode) the source
	// streams up: full duplex.
	http.NewResponseController(w).EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	ready := make(chan struct{})
	stdout := &countingWriter{w: w, flush: flusher, n: &s.bytesOut, ready: ready}

	job, err := s.sess.Start(r.Context(), script, pash.JobIO{Stdout: stdout}, startOpts...)
	if err != nil {
		if admitRelease != nil {
			admitRelease()
		}
		if trow != nil {
			trow.RefundJob()
		}
		s.failures.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.streamJobs.Add(1)

	w.Header().Set("Trailer", "X-Pash-Exit-Code, X-Pash-Error")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	close(ready)

	code, err := job.Wait()
	chargeJob(trow, job)
	w.Header().Set("X-Pash-Exit-Code", fmt.Sprintf("%d", code))
	if err != nil {
		if r.Context().Err() != nil {
			s.cancelled.Add(1)
		} else {
			s.failures.Add(1)
		}
		w.Header().Set("X-Pash-Error", err.Error())
	}
}
