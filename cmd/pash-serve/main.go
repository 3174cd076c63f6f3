// pash-serve is the multi-tenant daemon: it accepts shell scripts over
// HTTP (TCP or a unix socket), executes them through one shared
// parallelizing session — one plan cache, one machine scheduler — and
// streams each script's stdout back to its client.
//
//	pash-serve -listen :8721 -width 8
//	pash-serve -listen unix:/tmp/pash.sock
//
//	# script in the body:
//	curl -s --data-binary 'seq 9 | wc -l' http://localhost:8721/run
//	# script in the query, stdin in the body:
//	curl -s --data-binary @input.txt 'http://localhost:8721/run?script=grep%20x%20|%20wc%20-l'
//	# per-request parallelism width:
//	curl -s --data-binary 'sort f.txt' 'http://localhost:8721/run?width=16'
//	curl -s http://localhost:8721/metrics
//
// The exit status arrives in the X-Pash-Exit-Code HTTP trailer. Each
// request runs as one pash Job: disconnecting cancels the script, and
// /metrics lists a live row per in-flight job. Invalid per-request
// options and unparsable scripts are rejected with 400.
//
// # Streaming
//
// POST /stream runs a streamable pipeline continuously over an
// unbounded input — the request body (chunked uploads long-poll; body
// EOF ends the job with exit 0) or a server-side file tailed with
// rotation detection via ?follow=/path. Windowed emissions stream
// down as they close (?window=1s time trigger, ?window-bytes=N
// deterministic size trigger); ?checkpoint=PATH enables checkpointed
// failover and ?resume=1 continues from the checkpoint, replaying
// only the post-checkpoint suffix. Relative follow and checkpoint
// paths are under -dir. Unstreamable scripts get 400 before the
// response commits; streaming job rows in /metrics carry live
// rows/sec, window lag, and checkpoint age.
//
//	# running count of ERR lines in a growing log, every second:
//	curl -sN -X POST 'http://localhost:8721/stream?script=grep%20-c%20ERR&follow=/var/log/app.log&window=1s'
//
// # Overload behaviour
//
// Every job runs under the resource budgets given by -job-timeout,
// -max-output-bytes, -max-pipe-memory, and -max-procs; a breach cancels
// only that job (exit status 125 in the trailer). Admission is bounded:
// at most -queue requests wait for a script slot, none longer than
// -queue-wait, and excess load is shed with 503 + Retry-After instead
// of queueing without bound. The Retry-After hint is derived from live
// scheduler state (queue depth × average slot-hold time), not a
// constant.
//
// # Tenants
//
// Each request carries a tenant identity: the X-Pash-Tenant header,
// the tenant= query parameter, or -tenant-default when both are
// absent. Identity is the admission key — queued slots are granted
// round-robin across tenants, so one tenant's burst cannot starve
// another's — and, when governance is enabled, the accounting key:
//
//	pash-serve -listen :8721 -tenant-quota 10000 -tenant-rate 50 -tenant-burst 100 \
//	    -meter-commit usage.jsonl
//	curl -s -H 'X-Pash-Tenant: alice' --data-binary 'seq 9 | wc -l' http://localhost:8721/run
//
// -tenant-quota caps a tenant's lifetime admitted jobs; -tenant-rate /
// -tenant-burst bound its admission rate (token bucket). Refusals are
// distinguishable by status code and the X-Pash-Shed-Cause header:
// 403 "quota" (quota exhausted; no Retry-After, waiting will not
// help), 429 "rate" (rate limited; Retry-After says when the bucket
// next conforms), 503 "capacity" (machine saturated or draining;
// Retry-After derived from scheduler state). Usage is metered per
// tenant (jobs, wall time, data-plane bytes) with O(1) in-memory
// accounting; the net effect is committed in the background to the
// -meter-commit JSONL file once a tenant has 64 uncommitted jobs, or
// its oldest is a second old — commit information, not traffic — and
// /metrics carries a live row per tenant (admitted, sheds by cause,
// usage vs quota, commits).
//
// # Graceful drain
//
// SIGTERM/SIGINT or POST /drain stops admission (new runs shed with
// 503), lets in-flight jobs finish within -drain-timeout, deregisters
// from the coordinator (worker mode with -join), removes the unix
// socket, and exits 0.
//
// # Distributed mode
//
// The same binary is both halves of the distributed data plane:
//
//	# data-plane worker: executes shipped stage chains, nothing else
//	pash-serve -worker -listen :8722 -dir /data
//	# coordinator: shards every request across the workers
//	pash-serve -listen :8721 -workers http://w1:8722,http://w2:8722 -shared-fs
//	# a worker can also register itself with a running coordinator:
//	pash-serve -worker -listen :8722 -join http://coord:8721 -advertise http://w1:8722
//
// -shared-fs declares that workers see the coordinator's files at the
// same paths (NFS, same host), enabling file-range shards that ship no
// input bytes at all. Chunks travel as plain checksummed frames, each
// costing its 8-byte header. The coordinator's /metrics gains
// per-worker rows — the failover state (healthy, down or rejoining),
// chunk vs on-the-wire byte counts and plan-cache verdicts, plus a
// fleet-wide "wire" summary —
// GET /workers lists live membership, POST /workers/register adds a
// member at runtime, and POST /workers/deregister removes one (a
// draining worker calls it on itself).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/meter"
	"repro/internal/serve"
	"repro/pash"
)

func main() {
	listen := flag.String("listen", ":8721", "listen address: host:port, or unix:/path/to.sock")
	width := flag.Int("width", 8, "parallelism width ceiling per region (each region runs as wide as its input pays for)")
	workerTokens := flag.Int("worker-tokens", 0, "scheduler worker tokens (0 = number of CPUs)")
	scripts := flag.Int("scripts", 0, "max concurrently admitted scripts (0 = same as tokens)")
	queue := flag.Int("queue", 64, "max requests queued for admission before shedding (0 = unbounded)")
	queueWait := flag.Duration("queue-wait", 10*time.Second, "max time a request may queue for admission (0 = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock budget (0 = unlimited)")
	maxOutput := flag.Int64("max-output-bytes", 0, "per-job stdout byte budget (0 = unlimited)")
	maxPipeMem := flag.Int64("max-pipe-memory", 0, "per-job queued pipe memory budget in bytes (0 = unlimited)")
	maxProcs := flag.Int("max-procs", 0, "per-job region width cap (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline for in-flight jobs")
	tenantDefault := flag.String("tenant-default", "anonymous", "tenant identity for requests without X-Pash-Tenant")
	tenantQuota := flag.Int64("tenant-quota", 0, "per-tenant lifetime job quota (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in jobs/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant admission burst in jobs (0 = derived from -tenant-rate)")
	meterCommit := flag.String("meter-commit", "", "JSONL file receiving committed per-tenant usage (empty = in-memory only)")
	dir := flag.String("dir", "", "working directory for script file access")
	workerMode := flag.Bool("worker", false, "run as a data-plane worker (serve /exec only)")
	workers := flag.String("workers", "", "comma-separated worker addresses to coordinate")
	sharedFS := flag.Bool("shared-fs", false, "workers share this filesystem (enables file-range shards)")
	join := flag.String("join", "", "worker mode: coordinator URL to register with")
	advertise := flag.String("advertise", "", "worker mode: address to register as (default http://<listen>)")
	joinRetries := flag.Int("join-retries", 10, "worker mode: registration attempts before giving up")
	probeInterval := flag.Duration("probe-interval", 0, "coordinator: worker health probe interval (0 = default 2s)")
	flag.Parse()

	ln, err := serve.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pash-serve:", err)
		os.Exit(1)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	if *workerMode {
		w := dist.NewWorker(nil, *dir)
		hs := &http.Server{Handler: w.Handler()}
		fmt.Fprintf(os.Stderr, "pash-serve: worker listening on %s\n", ln.Addr())
		self := advertised(*advertise, *listen, ln)
		if *join != "" {
			// Register concurrently with serving: the coordinator probes
			// this worker's /healthz before admitting it, so registering
			// before Serve starts would deadlock the handshake.
			joinURL, attempts := *join, *joinRetries
			go func() {
				if err := registerWithRetry(joinURL, self, attempts); err != nil {
					fmt.Fprintln(os.Stderr, "pash-serve: join:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "pash-serve: registered with %s as %s\n", joinURL, self)
			}()
		}
		go func() {
			sig := <-sigc
			fmt.Fprintf(os.Stderr, "pash-serve: %s: draining\n", sig)
			if *join != "" {
				// Leave the pool before the listener goes away, so the
				// coordinator stops planning onto this worker cleanly
				// instead of discovering the death by probe.
				if err := membership(*join, "deregister", self); err != nil {
					fmt.Fprintln(os.Stderr, "pash-serve: deregister:", err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			hs.Shutdown(ctx)
		}()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "pash-serve:", err)
			os.Exit(1)
		}
		return
	}

	sched := pash.NewScheduler(*workerTokens)
	if *scripts > 0 {
		sched.SetMaxScripts(*scripts)
	}
	sched.SetAdmissionQueue(*queue, *queueWait)
	// -width (and a request's width=) is a ceiling: the planner sizes each
	// region from its input.
	sess := pash.NewSession(pash.Options{Width: *width, Preset: pash.Planned})
	sess.Dir = *dir
	srv := serve.New(sess, sched)
	srv.SetDefaultLimits(pash.JobLimits{
		WallTimeout:    *jobTimeout,
		MaxOutputBytes: *maxOutput,
		MaxPipeMemory:  *maxPipeMem,
		MaxProcs:       *maxProcs,
	})
	srv.SetDefaultTenant(*tenantDefault)

	// Tenant governance: attach a meter whenever any quota, rate, or
	// commit sink is configured (a bare meter would only add unused
	// rows). The committer runs for the daemon's life and flushes
	// outstanding usage deltas on stop.
	if *tenantQuota > 0 || *tenantRate > 0 || *meterCommit != "" {
		mc := meter.Config{
			DefaultQuota: *tenantQuota,
			Rate:         *tenantRate,
			Burst:        *tenantBurst,
		}
		if *meterCommit != "" {
			sink, err := meter.NewFileSink(*meterCommit)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pash-serve: -meter-commit:", err)
				os.Exit(2)
			}
			defer sink.Close()
			mc.Sink = sink
		}
		mtr := meter.New(mc)
		stopMeter := mtr.Start()
		defer stopMeter()
		srv.SetMeter(mtr)
	}

	// Pool.Add normalizes and skips empty pieces, so the raw split is
	// safe. Attach even when empty: workers can register themselves
	// later.
	pool := pash.NewWorkerPool(strings.Split(*workers, ",")...)
	pool.SetSharedFS(*sharedFS)
	if *probeInterval > 0 {
		pool.SetProberConfig(dist.ProberConfig{Interval: *probeInterval})
	}
	srv.AttachWorkers(pool)
	stopProber := srv.StartProber(context.Background())
	defer stopProber()

	hs := &http.Server{Handler: srv.Handler()}
	drained := make(chan error, 1)
	go func() {
		// Either a signal or POST /drain starts the drain; both paths
		// converge on DrainAndShutdown (idempotent).
		select {
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "pash-serve: %s: draining (deadline %s)\n", sig, *drainTimeout)
		case <-srv.DrainRequested():
			fmt.Fprintf(os.Stderr, "pash-serve: /drain: draining (deadline %s)\n", *drainTimeout)
		}
		drained <- srv.DrainAndShutdown(hs, *drainTimeout)
	}()

	fmt.Fprintf(os.Stderr, "pash-serve: listening on %s (width %d, %d workers)\n",
		ln.Addr(), *width, len(pool.WorkerNames()))
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pash-serve:", err)
		os.Exit(1)
	}
	if err := <-drained; err != nil {
		fmt.Fprintln(os.Stderr, "pash-serve: drain deadline expired:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pash-serve: drained, exiting")
}

// advertised picks the address other machines should dial this worker
// at: the explicit -advertise value, a unix listen address verbatim, or
// http://<actual listen address>.
func advertised(advertise, listen string, ln net.Listener) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(listen, "unix:") {
		return listen
	}
	return "http://" + ln.Addr().String()
}

// registerWithRetry keeps trying to register with the coordinator,
// backing off exponentially (capped at 5s) between attempts. Workers
// and coordinators routinely start out of order — a refused connection
// on the first try means "not up yet", not "never will be" — so one
// attempt is the wrong amount of persistence; unbounded retry would
// hide a typo'd -join address forever. The final error says how long
// we tried and why the last attempt failed.
func registerWithRetry(coordinator, self string, attempts int) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	backoff := 250 * time.Millisecond
	for attempt := 1; ; attempt++ {
		if err = membership(coordinator, "register", self); err == nil {
			return nil
		}
		if attempt >= attempts {
			return fmt.Errorf("giving up after %d attempts: %v", attempts, err)
		}
		fmt.Fprintf(os.Stderr, "pash-serve: join attempt %d/%d failed (%v), retrying in %s\n",
			attempt, attempts, err, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// membership announces or withdraws this worker's pool membership at a
// coordinator, over TCP or the coordinator's unix socket (`-join
// unix:/path/to/coord.sock`). verb is "register" or "deregister".
func membership(coordinator, verb, self string) error {
	client := http.DefaultClient
	target := strings.TrimSuffix(coordinator, "/") + "/workers/" + verb
	if path, ok := strings.CutPrefix(coordinator, "unix:"); ok {
		client = &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", path)
			},
		}}
		target = "http://pash-serve/workers/" + verb
	}
	resp, err := client.PostForm(target, url.Values{"url": {self}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %s", resp.Status)
	}
	return nil
}
