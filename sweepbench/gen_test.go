package main

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/ntvsim/ntvsim/internal/sweep"
)

func TestSameSeedSameSpecs(t *testing.T) {
	for _, w := range workloads {
		a, err := take(w, 7, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := take(w, 7, 100)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("%s: seed 7 gave two different spec lists", w)
		}
		d1, _ := specDigest(w, 7)
		d2, _ := specDigest(w, 7)
		d3, _ := specDigest(w, 8)
		if d1 != d2 || d1 == d3 {
			t.Errorf("%s: digests %s %s (seed 8: %s)", w, d1, d2, d3)
		}
	}
}

func TestSpecsNormalize(t *testing.T) {
	for _, w := range workloads {
		specs, _ := take(w, 3, 200)
		for i, s := range specs {
			ns, err := cloneSpec(s).Normalized()
			if err != nil {
				t.Fatalf("%s spec %d: %v", w, i, err)
			}
			if n := len(ns.Grid()); n < 2 || n > 10 {
				t.Errorf("%s spec %d has %d points", w, i, n)
			}
		}
	}
}

// TestAnalyticNeverRepeatsAPair runs the analytic stream to exhaustion
// and checks every (node, Vdd) grid point appears once.
func TestAnalyticNeverRepeatsAPair(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		g := newAnalyticGen(seed)
		seen := map[nodeMV]bool{}
		sweeps := 0
		for {
			s, ok := g.next()
			if !ok {
				break
			}
			sweeps++
			ns, err := s.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range ns.Grid() {
				p := nodeMV{pt.Node, int(math.Round(pt.Vdd * 1000))}
				if seen[p] {
					t.Fatalf("seed %d: (node, Vdd) pair %v repeats in sweep %d", seed, p, sweeps)
				}
				seen[p] = true
			}
		}
		// The lattice must last well past a timed window's ~50 sweeps.
		if sweeps < 78 {
			t.Errorf("seed %d: only %d analytic sweeps before the lattice ran out", seed, sweeps)
		}
		t.Logf("seed %d: %d analytic sweeps", seed, sweeps)
	}
}

func TestRepeatMixShare(t *testing.T) {
	counts := map[repeatKind]int{}
	for _, k := range repeatKinds {
		counts[k]++
	}
	n := float64(len(repeatKinds))
	if repeat := float64(counts[kindExact]+counts[kindOverlap]) / n; repeat != 0.75 {
		t.Errorf("repeat share %.3f, want 0.75", repeat)
	}
	// The pool must outgrow the daemon's 256-entry result cache.
	g := newRepeatGen(5)
	shards := 0
	for _, s := range g.pool {
		ns, err := cloneSpec(s).Normalized()
		if err != nil {
			t.Fatal(err)
		}
		shards += len(ns.Grid())
	}
	if shards <= 256 {
		t.Errorf("pool has %d distinct shards; want more than the 256-entry cache", shards)
	}
}

// TestReplaysReusePoolSpecs checks exact replays return a pool spec and
// overlapping ones keep its seed and leading grid points, so those
// shards are cache hits.
func TestReplaysReusePoolSpecs(t *testing.T) {
	g := newRepeatGen(11)
	bySeed := map[uint64]sweep.Spec{}
	for _, p := range g.pool {
		bySeed[p.Seed] = p
	}
	for i := 0; i < 200; i++ {
		s, _ := g.next()
		kind := repeatKinds[i%len(repeatKinds)]
		p, inPool := bySeed[s.Seed]
		if inPool != (kind != kindFresh) {
			t.Fatalf("sweep %d (kind %d): pool membership %v", i, kind, inPool)
		}
		if !inPool {
			continue
		}
		ns, _ := cloneSpec(s).Normalized()
		np, _ := cloneSpec(p).Normalized()
		got, want := ns.Grid(), np.Grid()
		extra := 0
		if kind == kindOverlap {
			extra = 1
		}
		if len(got) != len(want)+extra {
			t.Fatalf("sweep %d (kind %d) has %d points, pool spec %d", i, kind, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("sweep %d point %d = %+v, pool %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestMCGridSeedsAreFresh(t *testing.T) {
	specs, _ := take(wlMC, 4, 500)
	seen := map[uint64]bool{}
	for _, s := range specs {
		if seen[s.Seed] {
			t.Fatalf("mc_grid reuses sweep seed %d", s.Seed)
		}
		seen[s.Seed] = true
	}
}
