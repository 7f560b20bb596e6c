package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/ntvsim/ntvsim/internal/cluster"
	"github.com/ntvsim/ntvsim/internal/device"
	"github.com/ntvsim/ntvsim/internal/experiments"
	"github.com/ntvsim/ntvsim/internal/jobs"
	"github.com/ntvsim/ntvsim/internal/ledger"
	"github.com/ntvsim/ntvsim/internal/resultcache"
	"github.com/ntvsim/ntvsim/internal/simd"
	"github.com/ntvsim/ntvsim/internal/sram"
	"github.com/ntvsim/ntvsim/internal/ssta"
	"github.com/ntvsim/ntvsim/internal/sweep"
	"github.com/ntvsim/ntvsim/internal/tech"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// The traced run replays the daemon run's specs in child processes of
// this binary, one per pass, so every pass starts with the cold
// process-global caches (SSTA laws and values) a fresh daemon has.
// Spans are recorded only here, around calls into each layer's public
// functions; nothing inside the program is instrumented for the
// benchmark.

// shardTime is one grid point's evaluation time, keyed by its sweep's
// position in the stream and its grid index.
type shardTime struct {
	Sweep int     `json:"sweep"`
	Index int     `json:"index"`
	S     float64 `json:"s"`
}

// engineOut is the engine pass result.
type engineOut struct {
	EngineS         []float64   `json:"engine_s"` // Submit→Done per timed sweep
	QueueWaitS      []float64   `json:"queue_wait_s"`
	Shards          []shardTime `json:"shards"` // computed (non-cached) shard run times
	BusyFrac        float64     `json:"busy_frac"`
	CancelledOnDone int         `json:"cancelled_on_done"`
}

// layersOut is the layer-probe pass result.
type layersOut struct {
	Metrics map[string]float64 `json:"metrics"`
	Evals   []shardTime        `json:"evals"` // unloaded EvalShard times of the matched sweeps
}

// spanRecorder keeps the pass's spans in memory under one root and
// writes them as Chrome trace-event JSON at the end.
type spanRecorder struct {
	trace *telemetry.Trace
	ctx   context.Context // carries the root span
}

func newSpanRecorder(ctx context.Context, name string) *spanRecorder {
	ctx, tr := telemetry.NewTraceStore(1).Start(ctx, name)
	return &spanRecorder{trace: tr, ctx: ctx}
}

// time runs fn inside a span named name under parent (the root when
// nil) and returns its duration in seconds. A nil recorder times fn
// without recording a span.
func (r *spanRecorder) time(parent context.Context, name string, fn func(ctx context.Context)) float64 {
	if parent == nil {
		parent = context.Background()
		if r != nil {
			parent = r.ctx
		}
	}
	ctx, sp := telemetry.StartSpan(parent, name)
	start := time.Now()
	fn(ctx)
	d := time.Since(start).Seconds()
	sp.End()
	return d
}

// write ends the root span and writes the Chrome trace to path.
func (r *spanRecorder) write(path string) (telemetry.TraceSnapshot, error) {
	r.trace.Finish()
	snap := r.trace.Snapshot()
	b, err := json.Marshal(snap.Chrome())
	if err != nil {
		return snap, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return snap, err
	}
	return snap, os.WriteFile(path, b, 0o644)
}

// runEngine replays the first n specs of the stream through an
// in-process sweep.Engine composed like the daemon's — a jobs manager
// with GOMAXPROCS workers, the 256-entry result cache — and times
// Submit→Done of the specs after the warm-up head. With traced set,
// every sweep also gets submit/wait spans, written to tracePath.
func runEngine(ctx context.Context, workload string, seed uint64, n int, traced bool, tracePath string) (*engineOut, error) {
	specs, err := take(workload, seed, n)
	if err != nil {
		return nil, err
	}
	warm := min(warmupSweeps(workload), len(specs))
	workers := runtime.GOMAXPROCS(0)
	m := jobs.NewManager(workers, 64)
	defer m.Close()
	eng := sweep.NewEngine(m, resultcache.New[experiments.Result](256), telemetry.NewTraceStore(256))
	var rec *spanRecorder
	parent := ctx
	if traced {
		rec = newSpanRecorder(ctx, "sweepbench/engine")
		parent = rec.ctx
	}
	out := &engineOut{}
	type shardRef struct{ sweep, index int }
	timedJobs := map[string]shardRef{}
	var wallStart time.Time
	for i, spec := range specs {
		if i == warm {
			wallStart = time.Now()
		}
		var sw *sweep.Sweep
		elapsed := rec.time(parent, fmt.Sprintf("sweep/%d", i), func(c context.Context) {
			rec.time(c, "engine.submit", func(c context.Context) { sw, err = eng.SubmitCtx(c, spec) })
			if err == nil {
				rec.time(c, "engine.wait", func(context.Context) { <-sw.Done() })
			}
		})
		if err != nil {
			return nil, fmt.Errorf("engine submit %d: %w", i, err)
		}
		snap := sw.Snapshot()
		if snap.State != sweep.Done {
			return nil, fmt.Errorf("engine sweep %d ended %s: %s", i, snap.State, snap.Error)
		}
		if i < warm {
			continue
		}
		out.EngineS = append(out.EngineS, elapsed)
		for _, sh := range snap.Shards {
			if !sh.Cached && sh.JobID != "" {
				timedJobs[sh.JobID] = shardRef{i, sh.Index}
			}
		}
	}
	wall := time.Since(wallStart).Seconds()
	busy := 0.0
	for _, j := range m.List() {
		ref, ok := timedJobs[j.ID]
		if !ok || j.Started.IsZero() {
			continue
		}
		if j.State == jobs.Cancelled {
			// Every sweep finished done, so a cancelled shard job is the
			// sweep finalizing before the job returned, not lost work.
			out.CancelledOnDone++
		}
		out.QueueWaitS = append(out.QueueWaitS, j.Started.Sub(j.Created).Seconds())
		run := j.Finished.Sub(j.Started).Seconds()
		busy += run
		out.Shards = append(out.Shards, shardTime{Sweep: ref.sweep, Index: ref.index, S: run})
	}
	if wall > 0 {
		out.BusyFrac = busy / (float64(workers) * wall)
	}
	if rec != nil {
		if _, err := rec.write(tracePath); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalKernel is one (kernel, mode) pair the layer pass always times,
// with the sample count a calibration point uses when the workload
// itself does not run it.
type evalKernel struct {
	metric, mode string
	samples      int
}

var evalKernels = []evalKernel{
	{"p99chipclock", sweep.ModeMC, 10000},
	{"tailyield", sweep.ModeMC, 100000},
	{"yield_is", sweep.ModeMC, 10000},
	{"chain3sigma", sweep.ModeMC, 1000},
	{"chain3sigma", sweep.ModeSSTA, 0},
	{"gate3sigma", sweep.ModeSSTA, 0},
	{"p99chipclock", sweep.ModeSSTA, 0},
	{"tailyield", sweep.ModeSSTA, 0},
	{"sramreadyield", sweep.ModeSSTA, 0},
	{"sramwriteyield", sweep.ModeSSTA, 0},
	{"memlogicyield", sweep.ModeSSTA, 0},
}

func evalMetricName(metric, mode string) string {
	return fmt.Sprintf("eval.%s.%s_s_p50", metric, modeOr(mode))
}

// calibrationPoints is how many unloaded points time a kernel the
// workload does not run.
const calibrationPoints = 3

// calibrationSpec places a kernel the workload does not run on points
// half a millivolt off the workloads' whole-millivolt lattice, a
// different offset per kernel, so no cached law or value is reused.
func calibrationSpec(k evalKernel, i int, seed uint64) sweep.Spec {
	from := 0.5205 + 0.002*float64(i)
	s := sweep.Spec{
		Metric: k.metric,
		Nodes:  []string{nodeNames()[seed%uint64(len(tech.Nodes()))]},
		Vdd:    &sweep.VddAxis{From: from, To: from + 0.08, Step: 0.04},
		Seed:   seed | 1,
	}
	if k.mode == sweep.ModeSSTA {
		s.Mode = sweep.ModeSSTA
	} else {
		s.Samples = []int{k.samples}
	}
	return s
}

// runLayers times each layer's public entry points, outside-in, on the
// workload's own specs where it has them.
func runLayers(ctx context.Context, workload string, seed uint64, dir, tracePath string) (*layersOut, error) {
	// The matched sweeps: one rotation after the warm-up head (which is
	// itself one rotation long).
	warm := warmupSweeps(workload)
	specs, err := take(workload, seed, 2*warm)
	if err != nil {
		return nil, err
	}
	if len(specs) <= warm {
		return nil, fmt.Errorf("layer pass: stream too short")
	}
	matched := specs[warm:]
	rec := newSpanRecorder(ctx, "sweepbench/layers")
	out := &layersOut{Metrics: map[string]float64{}}
	evalTimes := map[string][]float64{}
	var normalizeS []float64
	mcSamples, mcSeconds := 0.0, 0.0
	var results []*sweep.ShardResult
	var ledgerRecs []ledger.Record

	// Outside-in serial replay of the matched sweeps: normalize, then
	// every grid point through the worker-side evaluation entry point.
	for i, spec := range matched {
		var ns sweep.Spec
		var pts []sweep.Point
		rec.time(nil, fmt.Sprintf("replay/%d", i), func(c context.Context) {
			normalizeS = append(normalizeS, rec.time(c, "sweep.normalize", func(context.Context) {
				ns, err = cloneSpec(spec).Normalized()
				if err == nil {
					pts = ns.Grid()
				}
			}))
			if err != nil {
				return
			}
			for _, pt := range pts {
				name := evalMetricName(ns.Metric, ns.Mode)
				var sr *sweep.ShardResult
				d := rec.time(c, "eval/"+ns.Metric+"/"+modeOr(ns.Mode), func(c context.Context) {
					sr, _, err = sweep.EvalShard(c, ns, pt)
				})
				if err != nil {
					return
				}
				evalTimes[name] = append(evalTimes[name], d)
				out.Evals = append(out.Evals, shardTime{Sweep: warm + i, Index: pt.Index, S: d})
				results = append(results, sr)
				if ns.Mode != sweep.ModeSSTA {
					mcSamples += float64(pt.Samples)
					mcSeconds += d
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("layer replay of sweep %d: %w", warm+i, err)
		}
		ledgerRecs = append(ledgerRecs, sweepRecord(ns, pts))
	}

	// Calibration points for kernels the workload does not run.
	for ki, k := range evalKernels {
		name := evalMetricName(k.metric, k.mode)
		if len(evalTimes[name]) > 0 {
			continue
		}
		ns, err := calibrationSpec(k, ki, seed).Normalized()
		if err != nil {
			return nil, err
		}
		for _, pt := range ns.Grid()[:calibrationPoints] {
			d := rec.time(nil, "eval/"+k.metric+"/"+k.mode, func(c context.Context) {
				_, _, err = sweep.EvalShard(c, ns, pt)
			})
			if err != nil {
				return nil, fmt.Errorf("calibration %s: %w", name, err)
			}
			evalTimes[name] = append(evalTimes[name], d)
			if k.mode == sweep.ModeMC {
				mcSamples += float64(pt.Samples)
				mcSeconds += d
			}
		}
	}
	for name, ts := range evalTimes {
		out.Metrics[name] = median(ts)
	}
	out.Metrics["sweep.normalize_s_p50"] = median(repeatNormalize(matched))
	if mcSeconds > 0 {
		out.Metrics["montecarlo.samples_per_s"] = mcSamples / mcSeconds
	}

	// Analytic building blocks on the workload's own (node, Vdd) pairs,
	// each call on a fresh value so no per-instance cache is reused.
	pairs := nodeVddPairs(matched, 5)
	var qfn, law, chain, gate, yield []float64
	for i, p := range pairs {
		node, err := tech.ByName(p.node)
		if err != nil {
			return nil, err
		}
		qfn = append(qfn, rec.time(nil, "simd.quantile_fn", func(context.Context) {
			_, err = simd.New(node).ChipQuantileFn(p.vdd)
		}))
		if err != nil {
			return nil, err
		}
		law = append(law, rec.time(nil, "ssta.law_build", func(context.Context) {
			ssta.NewLaw(node.Dev, node.Var, p.vdd, tech.ChainLength, simd.DefaultPathsPerLane, simd.DefaultLanes)
		}))
		chain = append(chain, rec.time(nil, "device.chain_moments", func(context.Context) {
			device.ChainMoments(node.Dev, node.Var, p.vdd, tech.ChainLength)
		}))
		gate = append(gate, rec.time(nil, "device.gate_moments", func(context.Context) {
			device.GateMoments(node.Dev, node.Var, p.vdd)
		}))
		if i < 3 {
			yield = append(yield, rec.time(nil, "sram.yield", func(context.Context) {
				sram.New(node).Yield(sram.OpRead, p.vdd)
			}))
		}
	}
	out.Metrics["simd.quantile_fn_s_p50"] = median(qfn)
	out.Metrics["ssta.law_build_s_p50"] = median(law)
	out.Metrics["device.chain_moments_s_p50"] = median(chain)
	out.Metrics["device.gate_moments_s_p50"] = median(gate)
	out.Metrics["sram.yield_s_p50"] = median(yield)

	if err := probeLedger(rec, filepath.Join(dir, "ledger"), ledgerRecs, out.Metrics); err != nil {
		return nil, err
	}
	if err := probeJournal(rec, filepath.Join(dir, "journal"), results, out.Metrics); err != nil {
		return nil, err
	}
	if err := probeCluster(ctx, rec, filepath.Join(dir, "cluster"), matched[:min(2, len(matched))], out.Metrics); err != nil {
		return nil, err
	}

	snap, err := rec.write(tracePath)
	if err != nil {
		return nil, err
	}
	for layer, share := range replayShares(snap) {
		out.Metrics["share."+layer] = share
	}
	return out, nil
}

// modeOr names a spec's estimator mode, "" being plain Monte-Carlo.
func modeOr(mode string) string {
	if mode == "" {
		return sweep.ModeMC
	}
	return mode
}

// normalizeReps is how often each spec is normalized when timing the
// microsecond-scale Spec.Normalized + Grid call.
const normalizeReps = 50

// repeatNormalize times Spec.Normalized + Grid per spec as the median of
// normalizeReps calls.
func repeatNormalize(specs []sweep.Spec) []float64 {
	var out []float64
	for _, s := range specs {
		var ts []float64
		for r := 0; r < normalizeReps; r++ {
			c := cloneSpec(s)
			start := time.Now()
			if ns, err := c.Normalized(); err == nil {
				_ = ns.Grid()
			}
			ts = append(ts, time.Since(start).Seconds())
		}
		out = append(out, median(ts))
	}
	return out
}

type nodeVdd struct {
	node string
	vdd  float64
}

// nodeVddPairs returns up to n distinct (node, Vdd) points of specs, in
// grid order.
func nodeVddPairs(specs []sweep.Spec, n int) []nodeVdd {
	seen := map[nodeVdd]bool{}
	var out []nodeVdd
	for _, s := range specs {
		ns, err := cloneSpec(s).Normalized()
		if err != nil || ns.Experiment != "" {
			continue
		}
		for _, pt := range ns.Grid() {
			p := nodeVdd{pt.Node, pt.Vdd}
			if seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
			if len(out) == n {
				return out
			}
		}
	}
	return out
}

// sweepRecord builds a run-ledger record shaped like the daemon's
// per-sweep record: resolved spec, provenance and one shard entry per
// grid point.
func sweepRecord(ns sweep.Spec, pts []sweep.Point) ledger.Record {
	spec, _ := json.Marshal(ns) // a normalized spec always encodes
	now := time.Now()
	rec := ledger.Record{
		RunID: sweep.NewID(), Kind: "sweep", Name: ns.Metric,
		SpecHash: resultcache.Key(ns), Spec: spec, Seed: ns.Seed,
		State: string(sweep.Done), Created: now, Started: now, Finished: now,
		Mode: ns.Mode,
	}
	for _, pt := range pts {
		rec.Shards = append(rec.Shards, ledger.ShardRecord{
			Index: pt.Index, Seed: pt.Seed, State: string(sweep.ShardDone), JobID: "j" + fmt.Sprint(pt.Index),
		})
		if ns.Mode != sweep.ModeSSTA {
			rec.Samples += int64(pt.Samples)
		}
	}
	return rec
}

// durableAppends is how many fsync'd appends the ledger and journal
// probes time.
const durableAppends = 30

func probeLedger(rec *spanRecorder, dir string, recs []ledger.Record, m map[string]float64) error {
	if len(recs) == 0 {
		return fmt.Errorf("ledger probe: no records")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l, err := ledger.Open(dir)
	if err != nil {
		return err
	}
	defer l.Close()
	var ts, sizes []float64
	for i := 0; i < durableAppends; i++ {
		r := recs[i%len(recs)]
		r.RunID = sweep.NewID()
		ts = append(ts, rec.time(nil, "ledger.append", func(context.Context) { err = l.Append(r) }))
		if err != nil {
			return err
		}
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(b)))
	}
	m["ledger.append_s_p50"] = median(ts)
	m["ledger.append_s_tail"], _, _ = tail(ts)
	m["ledger.record_bytes_p50"] = median(sizes)
	return nil
}

func probeJournal(rec *spanRecorder, dir string, results []*sweep.ShardResult, m map[string]float64) error {
	if len(results) == 0 {
		return fmt.Errorf("journal probe: no shard results")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := cluster.OpenJournal(dir)
	if err != nil {
		return err
	}
	defer j.Close()
	var ts []float64
	for i := 0; i < durableAppends; i++ {
		sr := results[i%len(results)]
		e := cluster.Entry{Type: cluster.EntryShard, SweepID: "probe", Index: sr.Point.Index, Worker: "w1", Result: sr}
		ts = append(ts, rec.time(nil, "cluster.journal_append", func(context.Context) { err = j.Append(e) }))
		if err != nil {
			return err
		}
	}
	m["cluster.journal_append_s_p50"] = median(ts)
	return nil
}

// probeCluster runs specs through an in-process coordinator, with this
// benchmark acting as the worker through the coordinator's own HTTP
// handlers, and times the lease and complete round trips.
func probeCluster(ctx context.Context, rec *spanRecorder, dir string, specs []sweep.Spec, m map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	co, err := cluster.New(cluster.Config{DataDir: dir})
	if err != nil {
		return err
	}
	defer co.Close()
	mgr := jobs.NewManager(runtime.GOMAXPROCS(0), 64)
	defer mgr.Close()
	eng := sweep.NewEngine(mgr, resultcache.New[experiments.Result](256), telemetry.NewTraceStore(64))
	eng.SetRemote(co)
	var leaseS, completeS []float64
	for _, spec := range specs {
		sw, err := co.Submit(ctx, eng, cloneSpec(spec))
		if err != nil {
			return err
		}
		for done := false; !done; {
			select {
			case <-sw.Done():
				done = true
				continue
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			var lr cluster.LeaseResponse
			d, err := callHandler(rec, "cluster.lease", co.HandleLease, cluster.LeaseRequest{
				WorkerID: "bench", ProtocolVersion: cluster.ProtocolVersion, MaxShards: 2,
			}, &lr)
			if err != nil {
				return err
			}
			leaseS = append(leaseS, d)
			if len(lr.Leases) == 0 {
				time.Sleep(time.Millisecond) // shards not offered yet
				continue
			}
			for _, g := range lr.Leases {
				sr, retries, evalErr := sweep.EvalShard(ctx, g.Spec, g.Point)
				req := cluster.CompleteRequest{WorkerID: "bench", LeaseID: g.LeaseID, Result: sr, Retries: retries}
				if evalErr != nil {
					req.Result, req.Error = nil, evalErr.Error()
				}
				var cr cluster.CompleteResponse
				d, err := callHandler(rec, "cluster.complete", co.HandleComplete, req, &cr)
				if err != nil {
					return err
				}
				completeS = append(completeS, d)
			}
		}
		if st := sw.Snapshot().State; st != sweep.Done {
			return fmt.Errorf("cluster probe sweep ended %s", st)
		}
	}
	m["cluster.lease_rtt_s_p50"] = median(leaseS)
	m["cluster.complete_s_p50"] = median(completeS)
	return nil
}

// callHandler posts in as JSON to an HTTP handler in-process, decodes a
// 200 response into out, and returns the handler's round-trip time.
func callHandler(rec *spanRecorder, name string, h http.HandlerFunc, in, out any) (float64, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	w := httptest.NewRecorder()
	d := rec.time(nil, name, func(context.Context) {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		h(w, r)
	})
	if w.Code != http.StatusOK {
		return d, fmt.Errorf("%s: %d %s", name, w.Code, strings.TrimSpace(w.Body.String()))
	}
	return d, json.Unmarshal(w.Body.Bytes(), out)
}

// replayShares splits the serial replay's time among its layers: each
// replay span's children by name prefix (normalize, MC or SSTA kernel
// evaluation), as shares of the replay total.
func replayShares(snap telemetry.TraceSnapshot) map[string]float64 {
	total := 0.0
	by := map[string]float64{}
	for _, sp := range snap.Root.Children {
		if !strings.HasPrefix(sp.Name, "replay/") {
			continue
		}
		total += sp.DurationMS
		for _, c := range sp.Children {
			switch {
			case c.Name == "sweep.normalize":
				by["normalize"] += c.DurationMS
			case strings.HasSuffix(c.Name, "/"+sweep.ModeSSTA):
				by["eval_ssta"] += c.DurationMS
			case strings.HasPrefix(c.Name, "eval/"):
				by["eval_mc"] += c.DurationMS
			}
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for _, layer := range []string{"normalize", "eval_mc", "eval_ssta"} {
		out[layer] = by[layer] / total
	}
	return out
}
