package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/ntvsim/ntvsim/internal/sweep"
	"github.com/ntvsim/ntvsim/internal/tech"
)

// gateSweep checks one daemon sweep against sweep.RunSerial on the same
// spec — the sharded ≡ serial ≡ cluster contract: the merged points
// must encode identically, so every value matches bit for bit. It
// returns the RunSerial wall time, the single-process baseline.
func gateSweep(ctx context.Context, o *sweepObs) (float64, error) {
	start := time.Now()
	res, err := sweep.RunSerial(ctx, o.spec)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return elapsed, fmt.Errorf("RunSerial: %w", err)
	}
	want, err := json.Marshal(res.Points)
	if err != nil {
		return elapsed, err
	}
	got, err := json.Marshal(o.points)
	if err != nil {
		return elapsed, err
	}
	if !bytes.Equal(want, got) {
		return elapsed, fmt.Errorf("sweep %s: merged points differ from RunSerial", o.id)
	}
	return elapsed, nil
}

// anchor is one recorded reference sweep: a small spec and the point
// values this benchmark's source commit computed for it. Anchors are
// self-consistency references that catch a change moving the daemon
// and RunSerial together; they are not validation against hardware.
type anchor struct {
	Spec   sweep.Spec `json:"spec"`
	Values []float64  `json:"values"`
}

//go:embed anchors.json
var anchorsJSON []byte

// anchorRelTol is the relative tolerance on analytic anchor values;
// Monte-Carlo anchors must match exactly.
const anchorRelTol = 1e-9

// anchorSpecs is the anchor set: every kernel in each mode it supports,
// on 2 fixed points with small sample counts.
func anchorSpecs() []sweep.Spec {
	samples := map[string]int{
		"chain3sigma": 500, "gate3sigma": 500, "tailyield": 20000,
	}
	var out []sweep.Spec
	for _, k := range sweep.Kernels() {
		for _, mode := range k.Modes() {
			if mode == sweep.ModeAuto {
				continue // auto points are answered by one of the other two
			}
			n := samples[k.ID]
			if n == 0 {
				n = 2000
			}
			out = append(out, sweep.Spec{
				Metric:  k.ID,
				Mode:    mode,
				Nodes:   []string{tech.Nodes()[1].Name},
				Vdd:     &sweep.VddAxis{From: 0.555, To: 0.605, Step: 0.05},
				Samples: []int{n},
				Seed:    20120603,
			})
		}
	}
	return out
}

// evalAnchors computes each anchor spec's point values with RunSerial.
func evalAnchors(ctx context.Context, specs []sweep.Spec) ([]anchor, error) {
	var out []anchor
	for _, s := range specs {
		res, err := sweep.RunSerial(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("anchor %s/%s: %w", s.Metric, s.Mode, err)
		}
		a := anchor{Spec: s}
		for _, p := range res.Points {
			a.Values = append(a.Values, p.Value)
		}
		out = append(out, a)
	}
	return out, nil
}

// recordAnchors writes the current commit's anchor values to path.
func recordAnchors(ctx context.Context, path string) error {
	as, err := evalAnchors(ctx, anchorSpecs())
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(as, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkAnchors recomputes the recorded anchor specs and compares their
// values with the recorded ones. It returns how many anchor points were
// checked and a description of each mismatch.
func checkAnchors(ctx context.Context) (int, []string, error) {
	var want []anchor
	if err := json.Unmarshal(anchorsJSON, &want); err != nil {
		return 0, nil, fmt.Errorf("anchors.json: %w", err)
	}
	specs := make([]sweep.Spec, len(want))
	for i, w := range want {
		specs[i] = cloneSpec(w.Spec)
	}
	got, err := evalAnchors(ctx, specs)
	if err != nil {
		return 0, nil, err
	}
	checked := 0
	var bad []string
	for i, w := range want {
		g := got[i]
		if len(g.Values) != len(w.Values) {
			bad = append(bad, fmt.Sprintf("%s/%s: %d points, recorded %d", w.Spec.Metric, w.Spec.Mode, len(g.Values), len(w.Values)))
			continue
		}
		for j := range w.Values {
			checked++
			if !anchorMatch(w.Spec.Mode, g.Values[j], w.Values[j]) {
				bad = append(bad, fmt.Sprintf("%s/%s point %d: %v, recorded %v", w.Spec.Metric, w.Spec.Mode, j, g.Values[j], w.Values[j]))
			}
		}
	}
	return checked, bad, nil
}

func anchorMatch(mode string, got, want float64) bool {
	if mode != sweep.ModeSSTA {
		return got == want
	}
	scale := math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
	return math.Abs(got-want) <= anchorRelTol*scale
}
