// Package repro is a from-scratch Go reproduction of "PaSh: Light-touch
// Data-Parallel Shell Processing" (EuroSys 2021). The public API lives in
// package repro/pash; examples/quickstart is the tour,
// internal/runtime/README.md documents the runtime's contracts,
// bench/README.md the repository benchmark and its workloads, and
// cmd/pash-bench prints the paper's tables and figures (internal/paper).
//
// # Architecture
//
// The pipeline mirrors the paper's:
//
//   - internal/shell   parses POSIX shell scripts,
//   - internal/annot   classifies commands (stateless / pure / …) via
//     the annotation DSL of Appendix A,
//   - internal/dfg     models regions as dataflow graphs and applies the
//     parallelization transformations of §4.2,
//   - internal/core    finds parallelizable regions (§5.1), compiles and
//     optimizes them, and either executes in-process or emits an
//     explicit parallel shell script (§5.2),
//   - internal/runtime executes graphs with one goroutine per node and
//     one in-memory pipe per edge,
//   - internal/commands provides the UNIX command substrate — and is
//     the only reader of a command's argv grammar: the verdicts annot
//     and agg need about one (does this tr keep newlines, is this sed a
//     map over lines, does this head take K lines) are asked of the
//     command's own parser,
//   - internal/agg     the custom aggregators of §3.2,
//   - internal/paper   is the §6 evaluation: the benchmark corpus, seeded
//     inputs, the §6.5 baselines, the §3.1 study, and a simulator that
//     projects per-node works measured by a profiling run
//     (core.Interp.Measure) onto a multicore machine. One function per
//     table or figure returns its rows; cmd/pash-bench prints them.
//     internal/benchscripts holds only tests: that corpus run sequential
//     against parallel, fused against unfused, and against dash/bash.
//
// # The chunked data plane
//
// Bytes move between nodes in pooled 64 KiB blocks
// (commands.BlockSize). Pipes are FIFOs of blocks; when both ends speak
// the chunk protocol (commands.ChunkWriter / commands.ChunkReader), a
// block crosses an edge by ownership transfer — zero copies. Three
// split implementations disperse streams across parallel replicas, and
// the planner writes its choice on each split node (dfg.Node.Split) for
// the executor to run as is: the barrier split, which holds the blocks
// it read and deals them out as contiguous line-balanced partitions;
// the file-range split, which serves a seekable input file as
// line-aligned byte ranges read concurrently; and the streaming
// round-robin split, whose interleaved blocks either pass through
// framed stateless replicas to an order-restoring merge or feed the
// maps of a pure command whose output cannot see line order
// (dfg.AggSpec.Commutative: sort, wc, grep -c). The default preset
// plans round-robin for such consumers even over a seekable file — the
// file-range split is the Par + B.Split preset, core.ParBSplit — and the
// barrier for everything else. Such a command absorbs the merge in
// front of it, so `tr | sort` plans as split → tr×n → sort×n → sort -m
// with nothing re-serialising the stream in between; only order-sensitive pure
// commands (uniq, tail, tac, and sort -s or -u under a key) still wait
// behind the barrier split. sort itself reads its input into one arena
// and sorts a pointer-free index of (key, offset, length) records over
// it. A bytewise order (plain, -r, -u, each run of --parallel) is a
// multikey quicksort on 8-byte words: the index splits three ways on
// each line's next 8 bytes read as one integer, and the equal group
// moves on to the following 8, so no comparison walks a shared prefix
// byte by byte. A key (-k, -n, -f, -d, -b) is a comparator sort on a
// decorated key — its first 8 bytes, or an image of the number — with
// GNU's tie rules: key ties fall back to the whole line unless -s or -u
// keep them in input order.
//
// # Fused stateless pipelines
//
// Linear chains of hot stateless commands (cat, tr, grep, cut, sed,
// rev) collapse into single dfg.KindFused nodes after the
// transformations settle: each command contributes a composable kernel
// (commands.Kernel — a per-block transform that is the command's own
// data loop: the command is its argv parser plus one driver that pushes
// its operands through the kernel), and the runtime executes the whole
// chain as one goroutine
// running the composed kernels over pooled blocks with zero
// intermediate pipes. A stateless stage is meant to cost per byte, not
// per line, and each byte once: tr maps a block in one word-wide pass,
// grep and sed with a fixed string search the block for it and touch
// only the lines that hold it, and the line-aligning reader under the
// splits copies a block's partial last line, never the block. Framing commutes through fusion, so fused
// replicas slot between a round-robin split and its order-restoring
// merge unchanged, and per-stage time/byte meters are attributed
// inside the fused loop. One runner, runtime.StageChain, executes every
// chain of stages — fused nodes, framed replicas, remote specs on a
// worker or on the coordinator — through kernels or, stage for stage,
// through the commands themselves.
//
// # Aggregation trees
//
// Parallelized pure commands aggregate their n partial results through
// a fan-in-k tree of aggregate nodes (automatic at width >= 8) instead
// of one flat n-ary merge, for aggregators marked associative by
// agg.Resolve — sort -m (a loser-tree k-way merge), wc, uniq -c, sums,
// head/tail, tac. The sequential merge stops being the width-scaling
// bottleneck: leaves combine in parallel and the critical path shrinks
// from O(n) streams to O(log_k n) levels.
//
// # The multi-tenant control plane
//
// Region compilation is split into planning (classify, lift to a DFG,
// optimize — pure in the expanded argv) and instantiation (clone the
// planned template, bind per-run IO). Planned templates live in an LRU
// plan cache keyed by the canonical fingerprint of the expanded region
// — per stage: name, argv, resolved redirections, all length-prefixed —
// plus the planning options (effective width, preset, fusion). A loop
// body re-plans only when its expanded argv changes, so
// `for f in *; do cut ... | grep ... | wc; done` compiles once and
// every later iteration pays one graph clone (see BenchmarkPlanCache).
//
// A shared runtime.Scheduler lets N concurrent script executions share
// the machine instead of each claiming its configured width: top-level
// runs block in script admission (a bounded semaphore), and each
// region is granted 1 + whatever extra worker tokens the shared pool
// can spare toward the width the planner wants, never blocking (which
// keeps concurrently-executing pipeline stages deadlock-free).
//
// How wide a region wants to be is planned per region, at run time. In
// the pash and pash-serve binaries -width is a ceiling (the Planned
// preset): a region gets one replica per 512 KiB of
// input where the planner can state its input — file operands it can
// stat, a regular-file stdin, a request body with a Content-Length —
// else per millisecond of its measured history, else the ceiling. A loop over
// a 4 KB file therefore runs two-node plans, not six-node ones, and
// never ships them to a worker pool. The decision and its reason are
// on the graph (pash -graph, pash -stats). Library callers and the
// paper-artifact tooling keep the other presets, which plan every region
// at the width given. internal/runtime/README.md, "Width".
//
// # Presets
//
// The planner has one configuration knob, core.Options.Preset, and the
// paper's ablations are its values. Par + Split (core.ParSplit, the zero
// value, what DefaultOptions returns), Par + B.Split, Parallel, Blocking
// Eager (eager buffers bounded at 1 MiB) and No Eager are the five lines
// of Fig. 7; split without eager is the §6.5 sort micro-benchmark's
// second line; Planned is Par + Split with the width a ceiling. One table
// in internal/core maps each preset to the dfg.Options it plans with, the
// plan cache keys on the preset, and cmd/pash-bench picks the presets by
// name.
//
// pash.Session is safe for concurrent Run: each run takes an immutable
// compiler snapshot, and extensions (Register, SetOptions) swap
// registries copy-on-write.
// cmd/pash-serve multiplexes many clients over one session — one plan
// cache, one scheduler — streaming stdin/stdout over HTTP (TCP or unix
// socket) with exit codes in response trailers and cache/scheduler/
// throughput counters on /metrics; internal/serve documents the
// protocol.
//
// # The Job API
//
// pash.Session.Start launches a script and returns a pash.Job handle
// immediately: streaming stdin/stdout, Wait/Cancel/Stats/ID semantics,
// cancellation at statement boundaries (exit status 130). Run is
// Start + Wait. pash-serve runs one Job per request — the request
// context cancels it when the client disconnects, a per-request width
// rides a query parameter, and /metrics lists a live row per in-flight
// job.
//
// pash.WithLimits(pash.JobLimits{...}) bounds one job's resources:
// WallTimeout (the whole script), MaxOutputBytes (stdout),
// MaxPipeMemory (the job's queued chunk memory across all internal
// pipes), MaxProcs (a ceiling on region width), and Sandbox (confine
// the filesystem to the job's working directory). The zero value means
// unlimited. A job that exceeds a budget is cancelled with a typed
// *pash.BudgetError — errors.Is-matching pash.ErrBudgetExceeded, exit
// status pash.ExitBudgetExceeded (125) — and Job.Stats reports the
// limits alongside live usage.
//
// # Overload safety
//
// The coordinator survives hostile scripts and hostile load: per-job
// budgets (above) stop any single job from exhausting the process;
// the shared scheduler's admission queue is bounded
// (Scheduler.SetAdmissionQueue) so a client burst is shed with
// ErrAdmissionShed — mapped by pash-serve to 503 + Retry-After —
// instead of stacking goroutines; every job, node, fused stage, and
// dispatch goroutine runs under a recover boundary that converts
// panics (including from user-registered extension kernels) into
// job-scoped errors with stack capture in a /metrics ring, never a
// process crash; and SIGTERM or POST /drain stops admission, lets
// in-flight jobs finish under a drain deadline, deregisters from
// workers, unlinks the unix socket, and exits 0. FuzzRunScript
// exercises the full interpreter under these budgets in a sandboxed
// temp directory. internal/runtime/README.md ("The coordinator failure
// model") documents the contracts.
//
// # The tenant front door
//
// At daemon scale admission carries an identity: each pash-serve
// request resolves a tenant (X-Pash-Tenant header, tenant= parameter,
// or -tenant-default), which becomes the scheduler's admission key —
// waiters queue per tenant and freed slots rotate round-robin across
// tenants (Scheduler.AdmitKey), bounding a quiet tenant's wait at ~one
// slot turnover under any other tenant's flood. internal/meter adds
// governance on the same identity: per-tenant job quotas and GCRA rate
// limits checked O(1) and allocation-free before scheduler admission,
// with refusals distinguishable by status and X-Pash-Shed-Cause (403
// quota, 429 rate, 503 capacity; Retry-After derived from live
// scheduler state). Usage (jobs, wall time, data-plane bytes) follows
// the VSA idiom — a committed scalar base plus an atomic in-memory net
// delta, folded to a pluggable JSONL sink only on watermark crossings
// with hysteresis ("commit information, not traffic") — and /metrics
// carries a row per tenant. The serve-mixed workload (bench/README.md)
// drives the front door over a real unix socket with four tenants.
//
// # Extending pash
//
// The typed extension API (pash.CommandSpec) makes a user command a
// full citizen of the parallelizing compiler. One registration carries:
//
//   - the implementation (a CommandFunc),
//   - a builder-style annotation — clauses guarded by option predicates
//     (pash.Opt, OptEq, Not, AllOf, AnyOf) assigning a class and I/O
//     shape (pash.Stdin, Stdout, Arg, Args), mirroring the DSL records
//     of Appendix A,
//   - an optional pash.KernelFactory: the per-block form that lets
//     stateless invocations join fused chains and framed round-robin
//     split regions,
//   - an optional pash.AggregatorSpec: the (map, aggregate) pair that
//     parallelizes pure invocations, joining fan-in aggregation trees
//     when marked associative.
//
// Shadowing precedence: a user registration wins over a builtin of the
// same name completely within its session — the builtin's
// implementation, kernel, aggregator, and (unless the session supplies
// its own) annotation record all stop applying. Registration bumps the
// registries' generations, which are part of every plan-cache key, so
// re-registration invalidates cached plans by construction.
// examples/extension is the runnable tour; `pash -graph` and
// pash.Plan.Dot render the planned graphs (fused stages, split
// strategies, aggregation-tree shape) as Graphviz dot.
//
// # Distributed execution
//
// A session with a worker pool attached (pash.NewWorkerPool +
// Session.UseWorkers, per-job WithWorkers, `pash -workers`, or
// `pash-serve -workers`) stretches the data plane across machines.
// Planning partitions each parallel region (dfg.Distribute) into
// KindRemote nodes executed on `pash-serve -worker` processes over a
// framed HTTP wire protocol, while splits, merges, and aggregation
// roots stay on the coordinator. Branches that read a whole partition —
// barrier-split consumers (uniq map shards), a round-robin branch that
// ends in a commutative map (`tr | sort`), aggregation-tree interior
// nodes — ship as whole-stream plans: one stream per input edge, one
// output stream back. When the pool shares the coordinator's
// filesystem (SetSharedFS), splits over seekable input files vanish
// entirely: workers self-source newline-aligned byte ranges and the
// coordinator ships no input at all. A round-robin chain that ends at
// the order-restoring merge stays on the coordinator as framed
// replicas: one chunk out per chunk in costs more to relay than to run.
//
// There is one wire protocol and no negotiation: frame 0 of every
// request is a handshake carrying the plan, the request environment,
// the job's sandbox bit and a plan fingerprint; a worker that cannot
// accept it answers 400 before reading input, which the coordinator
// treats like any other failed dispatch. Workers cache decoded plans
// and instantiated kernel chains under the fingerprint (an LRU busted
// by registry generation and pool membership), making repeated
// dispatches of hot regions skip decode, validation, and kernel
// construction. Every data frame carries a one-byte tag, raw or lz4
// (a built-in dependency-free codec), and each sender picks per frame
// from what it measures: lz4 only when its link is slower than its
// codec can take bytes off it, wire < codec × (1 − ratio). Loopback
// and LAN links stay raw at one byte per frame; a slow link carrying
// text moves several-fold fewer bytes. There is no knob. Checksums
// cover the payload as sent, so corruption is detected before
// decompression. The input a session keeps for replay is charged to
// the job's pipe-memory budget.
//
// The coordinator runs every remote node as one dispatch session down
// one recovery ladder: the assigned worker, then each surviving worker
// in turn, then — only when no peer is alive — the coordinator itself,
// through the same runtime.ExecRemoteLocal a pool-less run uses. The
// session retains every input chunk it sent, and the rung that takes
// over replays them and skips the output prefix already delivered:
// byte-identical output, no corruption, one membership epoch re-planned
// (the plan cache keys on the pool fingerprint).
//
// The plane is self-healing. Frames carry CRC-32C checksums, so a
// corrupted or truncated stream is a detected failure, never wrong
// bytes downstream; pre-stream faults retry against the same worker
// with capped exponential backoff; a handshake deadline and a
// per-stream inactivity watchdog turn silent network partitions into
// ordinary detected deaths; and a background prober walks each worker
// through a healthy→degraded→down→rejoining state machine with
// hysteresis — a dead worker drains out of planning, a restarted one
// rejoins, and a slow one is steered away from, all without restarting
// the coordinator. A fault-injection layer (dist.Injector, installed
// with Pool.SetFaultInjector) lets the chaos suite drive every fault
// class through the real stack to hold the no-corruption guarantee.
// Per-worker meters and state-transition counters ride the
// coordinator's /metrics; workers register at runtime via POST
// /workers/register, with bounded-retry -join on the worker side.
//
// # Streaming execution
//
// pash.WithStreamInput (and pash-serve's POST /stream) runs a job
// continuously over an unbounded input: a `tail -F`-style follow
// source with rotation detection, or any reader (socket, request
// body). The script must be streamable — one pipeline of stateless
// stages, optionally ending in an associative aggregation — and is
// compiled once into a core.StreamPlan; Session.CheckStream answers
// the shape question without starting a job (pash.ErrNotStreamable).
// internal/stream chops the source into newline-aligned windows
// (interval trigger, plus a deterministic size trigger) and executes
// each window as a normal finite batch region through the plan cache,
// so fusion, rr split, agg trees, and the distributed worker plane
// serve streaming unchanged. All-stateless pipelines emit each
// window's output as a delta; aggregation tails fold window partials
// through the aggregate commands themselves and emit the running
// value every window. Periodic checkpoints (fold state + source
// offset at a window boundary) make a restarted job resume replaying
// only the post-checkpoint suffix. Streaming jobs are exempt from
// WallTimeout; MaxPipeMemory becomes a pause-the-source backpressure
// bound; each window's width is planned from its own bytes and granted
// only while it runs, like any region's; and /metrics job rows carry
// live rows/sec, window lag, and checkpoint age.
// The stream-agg workload (bench/README.md) measures the streaming tax.
//
// internal/runtime/README.md documents the ownership contract, the
// framing protocol, the fusion contract, the tree layout, the
// scheduler's admission rules, the distributed wire format and failover
// contract, the streaming source/window/checkpoint contracts, and how
// the blocked-time meters feed the multicore simulator.
package repro
