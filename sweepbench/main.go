// Command sweepbench is the repository benchmark: one closed-loop
// client drives a real standalone ntvsimd through POST /v1/sweeps on
// loopback and reports end-to-end sweep latency and throughput; a
// traced run adds per-layer numbers from in-process passes over the
// same specs. See README.md.
//
// Run it through run.sh, which builds ntvsimd and this command from the
// checkout first:
//
//	bash sweepbench/run.sh --workload mc_grid --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sweep_s_p50", "s"},
	{"sweep_s_tail", "s"},
	{"first_point_s_p50", "s"},
	{"points_per_s", "1/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"ntvsimd.submit_s_p50", "s"},
	{"ntvsimd.sse_done_lag_s_p50", "s"},
	{"ntvsimd.result_get_s_p50", "s"},
	{"ntvsimd.result_bytes_p50", "bytes"},
	{"ntvsimd.http_requests_per_sweep", "count"},
	{"cli_sweep_s_p50", "s"},
	{"sweep.normalize_s_p50", "s"},
	{"sweep.engine_s_p50", "s"},
	{"sweep.shards_cached_frac", "ratio"},
	{"sweep.points", "count"},
	{"jobs.queue_wait_s_p50", "s"},
	{"jobs.queue_wait_s_tail", "s"},
	{"jobs.shard_stretch", "ratio"},
	{"jobs.busy_frac", "ratio"},
	{"jobs.cancelled_on_done", "count"},
	{"eval.p99chipclock.mc_s_p50", "s"},
	{"eval.tailyield.mc_s_p50", "s"},
	{"eval.yield_is.mc_s_p50", "s"},
	{"eval.chain3sigma.mc_s_p50", "s"},
	{"eval.chain3sigma.ssta_s_p50", "s"},
	{"eval.gate3sigma.ssta_s_p50", "s"},
	{"eval.p99chipclock.ssta_s_p50", "s"},
	{"eval.tailyield.ssta_s_p50", "s"},
	{"eval.sramreadyield.ssta_s_p50", "s"},
	{"eval.sramwriteyield.ssta_s_p50", "s"},
	{"eval.memlogicyield.ssta_s_p50", "s"},
	{"montecarlo.samples", "count"},
	{"importance.samples", "count"},
	{"montecarlo.samples_per_s", "1/s"},
	{"simd.quantile_fn_s_p50", "s"},
	{"ssta.law_build_s_p50", "s"},
	{"ssta.law_builds", "count"},
	{"device.chain_moments_s_p50", "s"},
	{"device.gate_moments_s_p50", "s"},
	{"sram.yield_s_p50", "s"},
	{"sram.cell_quadratures", "count"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.evictions", "count"},
	{"ledger.append_s_p50", "s"},
	{"ledger.append_s_tail", "s"},
	{"ledger.record_bytes_p50", "bytes"},
	{"cluster.lease_rtt_s_p50", "s"},
	{"cluster.complete_s_p50", "s"},
	{"cluster.journal_append_s_p50", "s"},
	{"trace.overhead_frac", "ratio"},
	{"share.service", "ratio"},
	{"share.normalize", "ratio"},
	{"share.eval_mc", "ratio"},
	{"share.eval_ssta", "ratio"},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding the ntvsimd binary
	work     string // scratch directory for data dirs, logs and traces
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg      config
		trace    int
		child    = flag.String("child", "", "internal: run one in-process pass (engine, engine-traced or layers) and print its JSON")
		n        = flag.Int("n", 0, "internal: number of specs the engine pass replays")
		dir      = flag.String("dir", "", "internal: scratch directory of a pass")
		tracePth = flag.String("trace-out", "", "internal: Chrome trace output path of a pass")
		record   = flag.String("record-anchors", "", "recompute the anchor set and write it to this file, then exit")
	)
	flag.StringVar(&cfg.workload, "workload", wlMC, fmt.Sprintf("workload: one of %v", workloads))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same specs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/sweepbench/bin", "directory holding the ntvsimd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/sweepbench", "scratch directory for daemon data dirs, logs and traces")
	flag.Parse()
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *record != "" {
		if err := recordAnchors(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "sweepbench:", err)
			return 1
		}
		return 0
	}
	if *child != "" {
		if err := runChild(ctx, *child, cfg, *n, *dir, *tracePth); err != nil {
			fmt.Fprintln(os.Stderr, "sweepbench:", err)
			return 1
		}
		return 0
	}
	res, err := bench(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepbench:", err)
		return 1
	}
	res.print(os.Stdout)
	return 0
}

// runChild runs one in-process pass and prints its result as JSON.
func runChild(ctx context.Context, kind string, cfg config, n int, dir, tracePath string) error {
	var out any
	var err error
	switch kind {
	case "engine":
		out, err = runEngine(ctx, cfg.workload, cfg.seed, n, false, "")
	case "engine-traced":
		out, err = runEngine(ctx, cfg.workload, cfg.seed, n, true, tracePath)
	case "layers":
		out, err = runLayers(ctx, cfg.workload, cfg.seed, dir, tracePath)
	default:
		return fmt.Errorf("unknown pass %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawnChild runs a pass in a fresh process of this binary and decodes
// its JSON result into out.
func spawnChild(ctx context.Context, kind string, cfg config, n int, dir, tracePath string, out any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "-child", kind, "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-n", fmt.Sprint(n), "-dir", dir, "-trace-out", tracePath)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s pass: %w", kind, err)
	}
	return json.Unmarshal(b, out)
}

// result is one invocation's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	defs      []metricDef
	notes     []string // human-readable context printed before the JSON line
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes, a metric table, and last the one-line JSON
// result.
func (r *result) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, d := range r.defs {
		v := r.metrics[d.name]
		fmt.Fprintf(w, "# %-34s %-14.6g %s\n", d.name, v, d.unit)
		ms[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Fprintln(w, string(b))
}

// setupLaunches is how many times a run deploys the daemon to time its
// set-up; setup_s is the median. The launches come in four equal
// batches, each at a moment when nothing else runs: before the warm-up
// (the last launch serves the workload), after it, after the timed
// window once the serving daemon has stopped, and after the correctness
// gate. One launch's time varies by half with host load, and the load
// drifts over seconds, so many launches spread over the run steady the
// median; a launch takes about 7 ms, so 200 cost under 2 s.
const setupLaunches = 200

// daemonRun is what one run against the daemon observed.
type daemonRun struct {
	setups        []float64   // seconds to ready, per deployment
	timed         []*sweepObs // the timed window's sweeps, in order
	ok            []*sweepObs // those that passed the correctness gate
	cli           []float64   // RunSerial seconds per gated sweep
	before, after promSamples // /metrics around the timed window
	window, rss   float64     // window seconds; peak RSS in MB
	points        int         // grid points of the ok sweeps
}

// timeSetups deploys and stops the daemon n times, recording each
// set-up time.
func (d *daemonRun) timeSetups(ctx context.Context, reg *registry, bin, runDir string, n int) error {
	for i := 0; i < n; i++ {
		dep, s, err := launch(ctx, reg, bin, runDir)
		if err != nil {
			return err
		}
		dep.stop()
		d.setups = append(d.setups, s)
	}
	return nil
}

func (d *daemonRun) pick(get func(*sweepObs) float64) []float64 {
	var xs []float64
	for _, o := range d.ok {
		xs = append(xs, get(o))
	}
	return xs
}

func bench(ctx context.Context, cfg config) (*result, error) {
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	digest, err := specDigest(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	r := &result{metrics: map[string]float64{}}
	r.note("workload %s seed %d: spec digest %s (first %d specs)", cfg.workload, cfg.seed, digest, digestSpecs)
	r.note("host: nproc %d, GOMAXPROCS %d, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	d, err := runDaemon(ctx, cfg, runDir, r)
	if err != nil {
		return nil, err
	}
	r.correct = r.failed == 0
	if !cfg.trace {
		r.defs = endToEnd
		sweepS := d.pick(func(o *sweepObs) float64 { return o.sweepS })
		r.metrics["sweep_s_p50"] = median(sweepS)
		r.metrics["sweep_s_tail"], _, _ = tail(sweepS)
		r.metrics["first_point_s_p50"] = median(d.pick(func(o *sweepObs) float64 { return o.firstS }))
		r.metrics["points_per_s"] = float64(d.points) / d.window
		r.metrics["setup_s"] = median(d.setups)
		r.metrics["rss_peak_mb"] = d.rss
		return r, nil
	}
	r.defs = perLayer
	if err := layerMetrics(ctx, cfg, runDir, d, r); err != nil {
		return nil, err
	}
	return r, nil
}

// runDaemon deploys the daemon, drives the warm-up and the timed window,
// gates correctness once the daemon has stopped, and stops every process
// it started. Failures and notes go to r.
func runDaemon(ctx context.Context, cfg config, runDir string, r *result) (*daemonRun, error) {
	gen, err := newGenerator(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	reg := &registry{}
	defer reg.stopAll()
	d := &daemonRun{}
	if err := d.timeSetups(ctx, reg, cfg.bin, runDir, setupLaunches/4-1); err != nil {
		return nil, err
	}
	dep, setup, err := launch(ctx, reg, cfg.bin, runDir)
	if err != nil {
		return nil, err
	}
	d.setups = append(d.setups, setup)
	c := newClient(dep.base)
	defer c.close()

	// Untimed warm-up: the head of the stream, so lazy set-up (tables,
	// connection, first-sweep paths) is paid before timing.
	var warm []*sweepObs
	for i := 0; i < warmupSweeps(cfg.workload); i++ {
		spec, ok := gen.next()
		if !ok {
			return nil, fmt.Errorf("stream exhausted during warm-up")
		}
		warm = append(warm, c.run(ctx, spec))
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := d.timeSetups(ctx, reg, cfg.bin, runDir, setupLaunches/4); err != nil {
		return nil, err
	}

	if d.before, err = c.scrape(ctx); err != nil {
		return nil, err
	}
	total0, steal0, cpuErr := cpuTimes()
	start := time.Now()
	want := timedRotations(cfg.workload, cfg.seconds) * gen.period()
	for len(d.timed) < want {
		spec, ok := gen.next()
		if !ok {
			r.note("the workload's input space ran out after %d of %d timed sweeps", len(d.timed), want)
			break
		}
		o := c.run(ctx, spec)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		d.timed = append(d.timed, o)
	}
	d.window = time.Since(start).Seconds()
	if total1, steal1, err := cpuTimes(); err == nil && cpuErr == nil && total1 > total0 {
		r.note("host CPU steal during the timed window: %.1f%%", 100*(steal1-steal0)/(total1-total0))
	}
	if d.after, err = c.scrape(ctx); err != nil {
		return nil, err
	}
	if d.rss, err = dep.peakRSSMB(); err != nil {
		return nil, err
	}
	dep.stop()
	if err := d.timeSetups(ctx, reg, cfg.bin, runDir, setupLaunches/4); err != nil {
		return nil, err
	}

	// Correctness gate, outside the timed window once the daemon has
	// stopped: every sweep, warm-up included, against RunSerial, then the
	// recorded anchors. Only the timed sweeps feed the metrics.
	for i, o := range append(warm, d.timed...) {
		timed := i >= len(warm)
		r.attempted++
		if o.failed == "" {
			s, err := gateSweep(ctx, o)
			if timed {
				d.cli = append(d.cli, s)
			}
			if err != nil {
				o.failed = err.Error()
			}
		}
		if o.failed != "" {
			r.failed++
			if r.failed <= 5 {
				r.note("sweep failed: %s", o.failed)
			}
			continue
		}
		if timed {
			d.ok = append(d.ok, o)
			d.points += o.total
		}
	}
	checked, bad, err := checkAnchors(ctx)
	if err != nil {
		return nil, err
	}
	// Finish the gate's garbage collection first, so it does not compete
	// with the launches.
	runtime.GC()
	if err := d.timeSetups(ctx, reg, cfg.bin, runDir, setupLaunches-len(d.setups)); err != nil {
		return nil, err
	}
	r.attempted += checked
	r.failed += len(bad)
	for _, b := range bad {
		r.note("anchor mismatch: %s", b)
	}
	r.note("correctness: %d warm-up and %d timed sweeps checked against RunSerial, %d anchor points checked", len(warm), len(d.timed), checked)
	r.note("single-process baseline: sweep.RunSerial median %.4f s over the same specs", median(d.cli))
	if len(d.ok) == 0 {
		return nil, fmt.Errorf("no timed sweep succeeded (%d attempted)", len(d.timed))
	}

	sweepS := d.pick(func(o *sweepObs) float64 { return o.sweepS })
	_, tailP, tailOK := tail(sweepS)
	tailNote := ""
	if !tailOK {
		tailNote = " (too few for a tail: the maximum)"
	}
	r.note("timed window %.2f s: %d sweeps, %d points; sweep_s_tail is p%.1f of %d samples%s",
		d.window, len(d.ok), d.points, tailP, len(sweepS), tailNote)
	byKernel := map[string][]float64{}
	var kernels []string
	for _, o := range d.ok {
		k := o.spec.Metric + "/" + modeOr(o.spec.Mode)
		if byKernel[k] == nil {
			kernels = append(kernels, k)
		}
		byKernel[k] = append(byKernel[k], o.sweepS)
	}
	for _, k := range kernels {
		r.note("sweep_s of %s: median %.4f s over %d sweeps", k, median(byKernel[k]), len(byKernel[k]))
	}
	return d, nil
}

// layerMetrics fills the per-layer metrics: the HTTP layer from the
// client's observations and /metrics deltas, everything else from
// in-process passes over the same specs in fresh processes.
func layerMetrics(ctx context.Context, cfg config, runDir string, d *daemonRun, r *result) error {
	m := r.metrics
	m["cli_sweep_s_p50"] = median(d.cli)
	m["ntvsimd.submit_s_p50"] = median(d.pick(func(o *sweepObs) float64 { return o.submitS }))
	m["ntvsimd.sse_done_lag_s_p50"] = median(d.pick(func(o *sweepObs) float64 { return o.doneLagS }))
	m["ntvsimd.result_get_s_p50"] = median(d.pick(func(o *sweepObs) float64 { return o.getS }))
	m["ntvsimd.result_bytes_p50"] = median(d.pick(func(o *sweepObs) float64 { return float64(o.bytes) }))
	// The closing scrape is the one request in the delta that no sweep made.
	m["ntvsimd.http_requests_per_sweep"] = (delta(d.before, d.after, "ntvsimd_http_requests_total") - 1) / float64(len(d.timed))
	cached := 0
	for _, o := range d.ok {
		cached += o.cached
	}
	m["sweep.points"] = float64(d.points)
	m["sweep.shards_cached_frac"] = float64(cached) / float64(d.points)
	m["resultcache.hits"] = delta(d.before, d.after, "ntvsimd_cache_hits_total")
	m["resultcache.misses"] = delta(d.before, d.after, "ntvsimd_cache_misses_total")
	m["resultcache.evictions"] = delta(d.before, d.after, "ntvsimd_cache_evictions_total")

	n := warmupSweeps(cfg.workload) + len(d.timed)
	var eng, engTraced engineOut
	var lay layersOut
	traceBase := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := spawnChild(ctx, "engine", cfg, n, runDir, "", &eng); err != nil {
		return err
	}
	if err := spawnChild(ctx, "engine-traced", cfg, n, runDir, traceBase+"-engine.json", &engTraced); err != nil {
		return err
	}
	if err := spawnChild(ctx, "layers", cfg, n, filepath.Join(runDir, "layers"), traceBase+"-layers.json", &lay); err != nil {
		return err
	}
	r.note("Chrome traces: %s-{engine,layers}.json", traceBase)

	m["montecarlo.samples"] = delta(d.before, d.after, "ntvsim_mc_samples_evaluated_total")
	m["importance.samples"] = delta(d.before, d.after, "ntvsim_is_samples_total")
	m["ssta.law_builds"] = delta(d.before, d.after, "ntvsim_ssta_law_builds_total")
	m["sram.cell_quadratures"] = delta(d.before, d.after, "ntvsim_sram_cell_quadratures_total")

	m["sweep.engine_s_p50"] = median(eng.EngineS)
	m["jobs.queue_wait_s_p50"] = median(eng.QueueWaitS)
	m["jobs.queue_wait_s_tail"], _, _ = tail(eng.QueueWaitS)
	m["jobs.busy_frac"] = eng.BusyFrac
	m["jobs.cancelled_on_done"] = float64(eng.CancelledOnDone)
	m["jobs.shard_stretch"] = shardStretch(eng.Shards, lay.Evals)
	if s := sum(eng.EngineS); s > 0 {
		m["trace.overhead_frac"] = sum(engTraced.EngineS)/s - 1
	}
	// Service share: the part of the client-observed sweep time the
	// in-process engine does not account for (HTTP, SSE, result read).
	if s := sum(d.pick(func(o *sweepObs) float64 { return o.sweepS })); s > 0 {
		m["share.service"] = 1 - sum(eng.EngineS)/s
	}
	for k, v := range lay.Metrics {
		m[k] = v
	}
	var missing []string
	for _, def := range perLayer {
		if _, ok := m[def.name]; !ok {
			missing = append(missing, def.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("traced run produced no value for %s", strings.Join(missing, ", "))
	}
	return nil
}

// shardStretch is the median in-engine shard run time over the median
// unloaded EvalShard time, both over the points timed in both passes.
func shardStretch(loaded, unloaded []shardTime) float64 {
	type key struct{ sweep, index int }
	load := map[key]float64{}
	for _, s := range loaded {
		load[key{s.Sweep, s.Index}] = s.S
	}
	var l, u []float64
	for _, s := range unloaded {
		if v, ok := load[key{s.Sweep, s.Index}]; ok {
			l = append(l, v)
			u = append(u, s.S)
		}
	}
	if len(l) == 0 || median(u) == 0 {
		return 0
	}
	return median(l) / median(u)
}
