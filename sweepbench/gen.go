package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/ntvsim/ntvsim/internal/sweep"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// Workload names, as passed to -workload.
const (
	wlMC       = "mc_grid"
	wlAnalytic = "analytic_grid"
	wlRepeat   = "repeat_mix"
)

var workloads = []string{wlMC, wlAnalytic, wlRepeat}

// generator yields the closed-loop client's sweep specs in order. ok is
// false once the workload's input space is used up (analytic_grid never
// repeats a (node, Vdd) pair, so its space is finite). period is the
// length of one kernel rotation: the timed window covers whole
// rotations, so every run measures the same kernel mix.
type generator interface {
	next() (spec sweep.Spec, ok bool)
	period() int
}

// newGenerator returns the spec stream of a workload. The stream is a
// pure function of (workload, seed).
func newGenerator(workload string, seed uint64) (generator, error) {
	switch workload {
	case wlMC:
		return newMCGen(seed), nil
	case wlAnalytic:
		return newAnalyticGen(seed), nil
	case wlRepeat:
		return newRepeatGen(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloads)
}

// warmupSweeps is how many specs from the head of each stream run
// untimed before the measured window: one full kernel rotation (at
// least two sweeps), so every kernel's lazy set-up is paid before
// timing.
func warmupSweeps(workload string) int {
	g, err := newGenerator(workload, 0)
	if err != nil {
		return 0
	}
	return max(g.period(), 2)
}

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// nodeNames are the canonical technology node names.
func nodeNames() []string {
	var out []string
	for _, n := range tech.Nodes() {
		out = append(out, n.Name)
	}
	return out
}

// pickNodes draws k distinct nodes.
func pickNodes(r *rand.Rand, k int) []string {
	names := nodeNames()
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names[:k]
}

// sweepSeed draws a sweep seed; zero is reserved for the paper default.
func sweepSeed(r *rand.Rand) uint64 {
	for {
		if s := r.Uint64(); s != 0 {
			return s
		}
	}
}

// mcKernel is one Monte-Carlo sweep kernel at its registry sample count.
type mcKernel struct {
	metric  string
	samples int
}

// mcKernels is the mc_grid rotation, weighted so the median sweep falls
// inside the tailyield sweeps and the tail percentile inside the
// p99chipclock sweeps (the paper's 99%-yield clock, the slowest kernel)
// rather than on the latency gap between two kernels.
var mcKernels = []mcKernel{
	{"p99chipclock", 10000},
	{"tailyield", 100000},
	{"p99chipclock", 10000},
	{"yield_is", 10000},
	{"p99chipclock", 10000},
	{"tailyield", 100000},
	{"chain3sigma", 1000},
}

// mcGen rotates through mcKernels on 2 seed-chosen nodes × 5 Vdd points
// in 0.50–0.60 V, each sweep with a fresh seed so no shard is ever a
// cache hit.
type mcGen struct {
	r *rand.Rand
	i int
}

func newMCGen(seed uint64) *mcGen { return &mcGen{r: newRand(seed, 1)} }

func (g *mcGen) period() int { return len(mcKernels) }

func (g *mcGen) next() (sweep.Spec, bool) {
	k := mcKernels[g.i%len(mcKernels)]
	g.i++
	return sweep.Spec{
		Metric:  k.metric,
		Nodes:   pickNodes(g.r, 2),
		Vdd:     &sweep.VddAxis{From: 0.50, To: 0.60, Step: 0.025},
		Samples: []int{k.samples},
		Seed:    sweepSeed(g.r),
	}, true
}

var analyticKernels = []string{
	"chain3sigma", "gate3sigma", "p99chipclock", "tailyield",
	"sramreadyield", "sramwriteyield", "memlogicyield",
}

// Analytic axes: 5 points 10 mV apart starting at a whole millivolt in
// 0.500–0.700 V. Starts lie in the first 10 mV of each 50 mV block (41
// of them), so two axes on one node either coincide or share no point.
const (
	analyticPoints  = 5
	analyticStepMV  = 10
	analyticBlockMV = analyticPoints * analyticStepMV
	analyticLowMV   = 500
	analyticHighMV  = 700
)

// analyticPairs are the six node pairs as three perfect matchings: the
// pairs 2m and 2m+1 share no node.
var analyticPairs = [][2]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}}

// nodeMV is one (node, Vdd in mV) pair of the analytic lattice.
type nodeMV struct {
	node string
	mv   int
}

// analyticGen pairs sweep i with kernel i mod 7 and node pair i mod 6,
// so every seed runs the same kernel × node mix (an SRAM point's cost
// depends on its node) and only the voltages differ. The seed shuffles
// the axis starts and deals them to the three matchings; both pairs of
// a matching take starts from the same list, so no (node, Vdd) pair ever
// repeats and the law, value and result caches all miss. The stream
// ends when a pair has no start left, after 78 or more sweeps.
type analyticGen struct {
	names  []string
	starts [3][]int // per matching: the seed's share of axis starts
	pos    [6]int   // per pair: starts taken
	i      int
}

func newAnalyticGen(seed uint64) *analyticGen {
	var starts []int
	for mv := analyticLowMV; mv <= analyticHighMV; mv++ {
		if (mv-analyticLowMV)%analyticBlockMV < analyticStepMV {
			starts = append(starts, mv)
		}
	}
	r := newRand(seed, 2)
	r.Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
	g := &analyticGen{names: nodeNames()}
	for i, mv := range starts {
		g.starts[i%3] = append(g.starts[i%3], mv)
	}
	return g
}

func (g *analyticGen) period() int { return len(analyticKernels) }

func (g *analyticGen) next() (sweep.Spec, bool) {
	p := g.i % len(analyticPairs)
	own := g.starts[p/2]
	if g.pos[p] >= len(own) {
		return sweep.Spec{}, false
	}
	start := own[g.pos[p]]
	g.pos[p]++
	k := analyticKernels[g.i%len(analyticKernels)]
	g.i++
	pair := analyticPairs[p]
	return sweep.Spec{
		Metric: k,
		Mode:   sweep.ModeSSTA,
		Nodes:  []string{g.names[pair[0]], g.names[pair[1]]},
		Vdd: &sweep.VddAxis{
			From: float64(start) / 1000,
			To:   float64(start+(analyticPoints-1)*analyticStepMV) / 1000,
			Step: float64(analyticStepMV) / 1000,
		},
	}, true
}

// repeat_mix design: of every four sweeps, two replay a pool spec
// exactly, one extends a pool spec by a Vdd point (same seed, so the
// shared points keep their grid indices and cache keys) and one is
// fresh. The pool's 280 distinct shards (more with the extensions)
// exceed the daemon's 256-entry result cache, and a timed window draws
// each pool spec about once, so only a replay of a spec that ran
// recently hits: about a fifth of the shards, and the cache fills and
// starts evicting.
const repeatPoolSize = 140

// repeatKinds is the repeat_mix rotation.
var repeatKinds = []repeatKind{kindExact, kindOverlap, kindExact, kindFresh}

// repeatKernels are cheap Monte-Carlo kernels at sample counts costing
// about 25 ms a point on 2 idle cores, whatever the node and voltage
// (yield_is mostly builds its chip quantile table). Sweeps have 2 points
// (one wave of the daemon's 2 shard workers) or, extended, 3: an
// uncached sweep's first shard ends after the event stream's first poll
// and the sweep before its first 100 ms tick, so uncached sweeps share
// one latency level and cached ones another.
var repeatKernels = []mcKernel{{"chain3sigma", 3000}, {"yield_is", 40000}}

type repeatGen struct {
	r     *rand.Rand
	pool  []sweep.Spec
	drawn int // specs drawn so far, pool included
	i     int
}

type repeatKind int

const (
	kindFresh repeatKind = iota
	kindExact
	kindOverlap
)

func newRepeatGen(seed uint64) *repeatGen {
	g := &repeatGen{r: newRand(seed, 3)}
	for i := 0; i < repeatPoolSize; i++ {
		g.pool = append(g.pool, g.draw())
	}
	return g
}

// draw makes a small MC sweep: 1 node × 2 Vdd points of a cheap kernel,
// alternating kernels.
func (g *repeatGen) draw() sweep.Spec {
	k := repeatKernels[g.drawn%len(repeatKernels)]
	g.drawn++
	startMV := 500 + 5*g.r.IntN(21)
	return sweep.Spec{
		Metric: k.metric,
		Nodes:  pickNodes(g.r, 1),
		Vdd: &sweep.VddAxis{
			From: float64(startMV) / 1000,
			To:   float64(startMV+25) / 1000,
			Step: 0.025,
		},
		Samples: []int{k.samples},
		Seed:    sweepSeed(g.r),
	}
}

func (g *repeatGen) period() int { return len(repeatKinds) }

func (g *repeatGen) next() (sweep.Spec, bool) {
	kind := repeatKinds[g.i%len(repeatKinds)]
	g.i++
	switch kind {
	case kindExact:
		return cloneSpec(g.pool[g.r.IntN(len(g.pool))]), true
	case kindOverlap:
		s := cloneSpec(g.pool[g.r.IntN(len(g.pool))])
		s.Vdd.To = float64(int(s.Vdd.To*1000+0.5)+25) / 1000
		return s, true
	default:
		return g.draw(), true
	}
}

// cloneSpec deep-copies the slice and pointer fields a caller may edit.
func cloneSpec(s sweep.Spec) sweep.Spec {
	s.Nodes = append([]string(nil), s.Nodes...)
	s.Samples = append([]int(nil), s.Samples...)
	if s.Vdd != nil {
		v := *s.Vdd
		s.Vdd = &v
	}
	return s
}

// nominalRotationS is the wall time one kernel rotation took on a 2-core
// host at the commit that defined the benchmark. A run's timed window is
// the whole number of rotations that took -seconds there: fixed work,
// identical across runs and commits, so every run measures the same
// kernel mix and the same number of sweeps.
var nominalRotationS = map[string]float64{
	wlMC:       2.8,
	wlAnalytic: 1.8,
	wlRepeat:   0.34,
}

// timedRotations is the number of kernel rotations the timed window runs.
func timedRotations(workload string, seconds int) int {
	return max(1, int(math.Ceil(float64(seconds)/nominalRotationS[workload])))
}

// take returns up to n specs from the head of a fresh stream.
func take(workload string, seed uint64, n int) ([]sweep.Spec, error) {
	g, err := newGenerator(workload, seed)
	if err != nil {
		return nil, err
	}
	var out []sweep.Spec
	for len(out) < n {
		s, ok := g.next()
		if !ok {
			break
		}
		out = append(out, s)
	}
	return out, nil
}

// digestSpecs is the number of leading specs the input digest covers.
const digestSpecs = 64

// specDigest fingerprints the head of a workload's spec stream, so two
// runs can show they drove the daemon with the same inputs.
func specDigest(workload string, seed uint64) (string, error) {
	specs, err := take(workload, seed, digestSpecs)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(specs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
