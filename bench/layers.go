package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/serve"
	"repro/pash"
)

// Scoped rows: per-layer rows that describe the workload being run,
// taken by running its legs inside this process and by reading the
// public stats of the layers it exercises.

// serveProbes measures the serve and stream rows against live daemons:
// the workload's own when it is serve-mixed, a serve-mixed set-up made
// for the purpose otherwise.
func (p *layerProbe) serveProbes(ctx context.Context, in *instance, tr *tracer) error {
	sv := in
	if in.spec.name != "serve-mixed" {
		s, err := findSpec("serve-mixed")
		if err != nil {
			return err
		}
		if sv, err = setUp(ctx, p.cfg, s); err != nil {
			return err
		}
		defer sv.close()
		tr = nil
	}
	pass, err := sv.pass(ctx, sidePar, tr)
	if err != nil {
		return err
	}
	if n := pass.failed(); n > 0 {
		return fmt.Errorf("bench: serve probe: %d of %d requests failed", n, len(pass.ops))
	}
	byClass := map[string][]time.Duration{}
	var all []time.Duration
	for _, op := range pass.ops {
		byClass[op.leg] = append(byClass[op.leg], op.wall)
		all = append(all, op.wall)
	}
	for _, l := range sv.legs {
		p.stat("serve.latency_p50_ms."+l.name, "ms", percentile(byClass[l.name], 50).Seconds()*1e3, len(byClass[l.name]))
	}
	p.stat("serve.latency_p99_ms", "ms", percentile(all, 99).Seconds()*1e3, len(all))

	var m serve.Metrics
	if err := getJSON(ctx, sv.clients[sidePar][0], "http://pash/metrics", &m); err != nil {
		return err
	}
	p.count("serve.sheds", "count", float64(m.Sheds))
	share := 0.0
	if total := m.PlanCache.Hits + m.PlanCache.Misses; total > 0 {
		share = float64(m.PlanCache.Hits) / float64(total)
	}
	p.count("serve.plan_cache_hit_share", "share", share)
	commits := 0.0
	if m.Meter != nil {
		commits = float64(m.Meter.Commits)
	}
	p.count("meter.commits", "count", commits)

	// Socket cost: the tiny request alone, one connection, over the
	// unix socket and over loopback TCP, less the bare handler.
	handler := p.median("serve.handler_us.tiny")
	tinyLeg := sv.legs[0]
	target := "http://pash/run?script=" + url.QueryEscape(tinyLeg.script)
	loop := func(c *http.Client) (float64, error) {
		var lat []time.Duration
		for i := 0; i < scaled(300, p.cfg.quick); i++ {
			op := post(ctx, c, target, tenants[0], nil, tinyLeg)
			if !op.ok {
				return 0, fmt.Errorf("bench: socket probe: tiny request failed")
			}
			lat = append(lat, op.wall)
		}
		return percentile(lat, 50).Seconds() * 1e6, nil
	}
	unix, err := loop(sv.clients[sidePar][0])
	if err != nil {
		return err
	}
	p.count("serve.socket_overhead_us", "us", unix-handler)
	tcpD, err := startDaemon(ctx, sv.serveBin, sv.dir, "127.0.0.1:0", "-dir", ".", "-width", fmt.Sprint(p.cfg.width))
	if err != nil {
		return err
	}
	defer tcpD.stop()
	tcpClient := newClient(tcpD.addr)
	defer tcpClient.CloseIdleConnections()
	tcp, err := loop(tcpClient)
	if err != nil {
		return err
	}
	p.count("serve.tcp_overhead_us", "us", tcp-handler)

	// Window service time: one window in flight at a time through a
	// size-preserving delta script, from the last byte written to the
	// last byte of its emission read.
	service, err := windowService(ctx, sv.parD.addr, p.cfg.seed, scaled(8, p.cfg.quick))
	if err != nil {
		return err
	}
	p.add("stream.window_service_ms_p50", "ms", service)
	return nil
}

// scopedRows measures the rows that describe the workload being run:
// its legs in-process, traced and untraced, and the stats of the layers
// only it exercises.
func (p *layerProbe) scopedRows(ctx context.Context, in *instance, par, seq []passSample, tr *tracer) error {
	width := p.cfg.width

	// cli: what the end-to-end passes saw, leg by leg.
	legWalls := func(passes []passSample) map[string][]float64 {
		out := map[string][]float64{}
		for _, ps := range passes {
			for _, op := range ps.ops {
				out[op.leg] = append(out[op.leg], op.wall.Seconds())
			}
		}
		return out
	}
	parWalls, seqWalls := legWalls(par), legWalls(seq)
	var rss int64
	for _, ps := range par {
		rss = max(rss, ps.peakRSSKB)
	}
	p.count("cli.peak_rss_mb", "MB", float64(rss)/1024)
	for _, l := range in.legs {
		p.add("cli.leg_wall_s."+l.name, "s", parWalls[l.name])
		p.add("cli.leg_seq_wall_s."+l.name, "s", seqWalls[l.name])
	}

	var pool *dist.Pool
	if len(in.workers) > 0 {
		var addrs []string
		for _, w := range in.workers {
			addrs = append(addrs, "http://"+w.addr)
		}
		pool = dist.NewPool(addrs...)
	}

	// Each repetition runs a leg three ways back to back — through
	// Session.Run, decomposed with spans, decomposed without — so the
	// two shares are medians of ratios between neighbours in time.
	const reps = 5
	var (
		total   pash.InterpStats
		wire    distTotals
		sum     = map[string]float64{} // workload rows: per-leg medians, summed
		shares  = map[string]float64{} // run-wall-weighted per-leg shares
		runWall float64
	)
	for _, l := range in.legs {
		if pool != nil {
			pool.SetSharedFS(len(l.flags) > 0)
		}
		batch := l
		batch.ref = l.batchRef
		samples := map[string][]float64{}
		for rep := 0; rep < reps; rep++ {
			var before []dist.WorkerStats
			if pool != nil {
				before = pool.Stats()
			}
			wall, st, err := sessionRun(ctx, in.dir, batch, width, pool)
			if err != nil {
				return err
			}
			if rep == 0 {
				// Counts come from one Session.Run of each leg.
				total.Regions += st.Regions
				total.PlanHits += st.PlanHits
				total.PlanMisses += st.PlanMisses
				total.BytesMoved += st.BytesMoved
				total.ChunksMoved += st.ChunksMoved
				if pool != nil {
					wire = wire.plus(distDelta(before, pool.Stats()))
				}
			}
			// Alternate which decomposed run goes first, so that neither
			// always inherits the other's garbage.
			job := fmt.Sprintf("%s/%s#%d", in.spec.name, l.name, rep)
			var prof, plain legProfile
			for i := 0; i < 2; i++ {
				if (i+rep)%2 == 0 {
					prof, err = decomposedRun(ctx, in.dir, batch, width, pool, tr, job)
				} else {
					plain, err = decomposedRun(ctx, in.dir, batch, width, pool, nil, "")
				}
				if err != nil {
					return err
				}
			}
			for name, v := range map[string]float64{
				"pash.run_wall_s":          wall.Seconds(),
				"runtime.execute_wall_s":   prof.execWall.Seconds(),
				"runtime.node_active_s":    prof.nodeActive.Seconds(),
				"runtime.node_blocked_s":   (prof.nodeWall - prof.nodeActive).Seconds(),
				"trace.unattributed_share": 1 - tr.attributed(job).Seconds()/wall.Seconds(),
				"trace.overhead_share":     prof.wall.Seconds()/plain.wall.Seconds() - 1,
				"dfg.nodes_after":          float64(prof.nodes),
			} {
				samples[name] = append(samples[name], v)
			}
		}
		legWall := medianOf(samples["pash.run_wall_s"])
		runWall += legWall
		for name, v := range samples {
			unit := "s"
			switch {
			case strings.HasSuffix(name, "_share"):
				unit = "share"
				shares[name] += medianOf(v) * legWall
			case name == "dfg.nodes_after":
				unit = "count"
				sum[name] += medianOf(v)
			default:
				sum[name] += medianOf(v)
			}
			p.add(name+"."+l.name, unit, v)
		}
	}
	for _, name := range []string{"pash.run_wall_s", "runtime.execute_wall_s", "runtime.node_active_s", "runtime.node_blocked_s"} {
		p.count(name, "s", sum[name])
	}
	p.count("dfg.nodes_after", "count", sum["dfg.nodes_after"])
	p.count("trace.unattributed_share", "share", shares["trace.unattributed_share"]/runWall)
	p.count("trace.overhead_share", "share", shares["trace.overhead_share"]/runWall)
	p.count("pash.regions", "count", float64(total.Regions))
	p.count("pash.plan_hits", "count", float64(total.PlanHits))
	p.count("pash.plan_misses", "count", float64(total.PlanMisses))
	p.count("pash.bytes_moved", "bytes", float64(total.BytesMoved))
	p.count("pash.chunks_moved", "count", float64(total.ChunksMoved))

	// dist: what one Session.Run of each leg put on the wire.
	p.count("dist.wire_bytes_raw", "bytes", float64(wire.raw))
	p.count("dist.wire_bytes_sent", "bytes", float64(wire.wire))
	p.count("dist.worker_plan_hits", "count", float64(wire.planHits))
	p.count("dist.worker_plan_misses", "count", float64(wire.planMisses))
	p.count("dist.retries", "count", float64(wire.retries))
	p.count("dist.failovers", "count", float64(wire.failovers))

	// stream: exact window count from an in-process streaming job, and
	// the streaming tax against the batch run of the same bytes.
	windows, tax := 0.0, 0.0
	if in.spec.kind == kindStream {
		var streamWall time.Duration
		for _, ps := range par {
			streamWall += ps.wall
		}
		streamWall /= time.Duration(max(len(par), 1))
		tax = streamWall.Seconds() / runWall
		for _, l := range in.legs {
			n, err := streamWindows(ctx, in.dir, l, width)
			if err != nil {
				return err
			}
			windows += float64(n)
		}
	}
	p.count("stream.windows", "count", windows)
	p.count("stream.tax_vs_batch", "ratio", tax)
	return nil
}

type distTotals struct{ raw, wire, planHits, planMisses, retries, failovers int64 }

func (t distTotals) plus(o distTotals) distTotals {
	return distTotals{t.raw + o.raw, t.wire + o.wire, t.planHits + o.planHits, t.planMisses + o.planMisses, t.retries + o.retries, t.failovers + o.failovers}
}

func distDelta(before, after []dist.WorkerStats) distTotals {
	sum := func(ws []dist.WorkerStats) (t distTotals) {
		for _, w := range ws {
			t.raw += w.BytesOut + w.BytesIn
			t.wire += w.WireBytesOut + w.WireBytesIn
			t.planHits += w.PlanCacheHits
			t.planMisses += w.PlanCacheMisses
			t.retries += w.Retries
			t.failovers += w.Redispatched + w.RedispatchedRemote
		}
		return t
	}
	a, b := sum(after), sum(before)
	return distTotals{a.raw - b.raw, a.wire - b.wire, a.planHits - b.planHits, a.planMisses - b.planMisses, a.retries - b.retries, a.failovers - b.failovers}
}

// streamWindows runs a stream leg as an in-process streaming job and
// returns how many windows it closed.
func streamWindows(ctx context.Context, dir string, l leg, width int) (int64, error) {
	body, err := readInput(dir, l.stdin)
	if err != nil {
		return 0, err
	}
	sess := pash.NewSession(pash.DefaultOptions(width))
	sess.Dir = dir
	out := newDigest()
	job, err := sess.Start(ctx, l.script, pash.JobIO{Stdout: out}, pash.WithStreamInput(pash.StreamConfig{
		Reader: bytes.NewReader(body), WindowBytes: streamWindowBytes, Interval: time.Hour,
	}))
	if err != nil {
		return 0, err
	}
	if code, err := job.Wait(); err != nil || code != 0 {
		return 0, fmt.Errorf("bench: in-process stream %s: exit %d: %v", l.name, code, err)
	}
	if out.output() != l.ref {
		return 0, fmt.Errorf("bench: in-process stream %s: output differs from the reference", l.name)
	}
	st := job.Stats()
	if st.Stream == nil {
		return 0, errors.New("bench: streaming job reported no stream stats")
	}
	if want := int64(len(windowOffsets(body))); st.Stream.Windows != want {
		return 0, fmt.Errorf("bench: stream %s closed %d windows, the input has %d", l.name, st.Stream.Windows, want)
	}
	return st.Stream.Windows, nil
}

// sortRows orders rows by layer, then name, for printing.
func sortRows(rows []row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].EndToEnd != rows[j].EndToEnd {
			return rows[i].EndToEnd
		}
		return rows[i].Name < rows[j].Name
	})
}
