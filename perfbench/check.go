package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"

	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// The output checks. None compares against a stored copy of earlier output:
// each re-derives what it checks from the model's direct path or from the
// definition of the tCDP envelope (§IV-B).

// lpt is a design in the Lagrange plane: X = E·D, Y = C_emb·D.
type lpt struct{ X, Y float64 }

func lagrange(p dse.Point) lpt { return lpt{p.EDP(), p.EmbodiedDelay()} }

func lagrangeAll(pts []dse.Point) []lpt {
	out := make([]lpt, len(pts))
	for i, p := range pts {
		out[i] = lagrange(p)
	}
	return out
}

// checkConvex requires env to be a strictly convex lower envelope: E·D
// strictly rising, C_emb·D strictly falling, and every vertex strictly below
// the chord of its neighbours.
func checkConvex(env []lpt) error {
	if len(env) == 0 {
		return fmt.Errorf("envelope is empty")
	}
	for i, p := range env {
		if !(p.X > 0 && p.Y > 0) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("envelope vertex %d is not a finite positive point: %v", i, p)
		}
		if i == 0 {
			continue
		}
		q := env[i-1]
		if !(p.X > q.X && p.Y < q.Y) {
			return fmt.Errorf("envelope vertices %d→%d do not trade E·D for C_emb·D: %v → %v", i-1, i, q, p)
		}
		if i >= 2 {
			a := env[i-2]
			if cross := (q.X-a.X)*(p.Y-a.Y) - (q.Y-a.Y)*(p.X-a.X); !(cross > 0) {
				return fmt.Errorf("envelope vertex %d is not strictly below the chord of its neighbours (cross %g)", i-1, cross)
			}
		}
	}
	return nil
}

// envelopeTol is the relative slack of the below-envelope test: a point
// beats the envelope only by more than rounding in the breakpoint algebra.
const envelopeTol = 1e-12

// below reports whether q minimizes Y + β·X strictly better than every
// vertex of env for some β ≥ 0. min over env is concave and piecewise
// linear in β, so it suffices to test β = 0, each breakpoint, and β → ∞.
func below(env []lpt, q lpt) bool {
	if len(env) == 0 {
		return true
	}
	first, last := env[0], env[len(env)-1]
	if q.X < first.X || (q.X == first.X && q.Y < first.Y) {
		return true // wins as β → ∞
	}
	if q.Y < last.Y*(1-envelopeTol) {
		return true // wins at β = 0
	}
	for i := 0; i+1 < len(env); i++ {
		a, b := env[i], env[i+1]
		beta := (a.Y - b.Y) / (b.X - a.X)
		f := math.Min(a.Y+beta*a.X, b.Y+beta*b.X)
		if q.Y+beta*q.X < f*(1-envelopeTol) {
			return true
		}
	}
	return false
}

// checkNotBelow requires that no sampled cell beats the envelope at any
// operational time.
func checkNotBelow(env []lpt, sample []lpt, ids []int64) error {
	for i, q := range sample {
		if below(env, q) {
			return fmt.Errorf("cell %d (E·D %g, C_emb·D %g) lies below the envelope: it was wrongly pruned", ids[i], q.X, q.Y)
		}
	}
	return nil
}

// tcdp is the benchmark's own tCDP after n inferences (eq. IV.6) in the
// Lagrange plane: C_emb·D + CI_use·n/3.6e6 · E·D.
func tcdp(p lpt, ci units.CarbonIntensity, n float64) float64 {
	return p.Y + ci.GramsPerKWh()*n/units.JoulesPerKWh*p.X
}

// sweepNs is the log-N operational-time sweep of the optimum check.
var sweepNs = dse.LogSpace(1, 1e15, 61)

// checkOptimalAt requires OptimalAt(N) to be the benchmark's own tCDP argmin
// over the envelope at every N of the sweep.
func checkOptimalAt(env []lpt, ci units.CarbonIntensity, optimalAt func(float64) int) error {
	for _, n := range sweepNs {
		best, bestV := -1, math.Inf(1)
		for i, p := range env {
			if v := tcdp(p, ci, n); v < bestV {
				best, bestV = i, v
			}
		}
		if got := optimalAt(n); got != best {
			return fmt.Errorf("OptimalAt(%g) = %d, the tCDP argmin is %d", n, got, best)
		}
	}
	return nil
}

// cells prices grid cells on the direct simulator path: every kernel
// through Config.KernelCost under workload.Evaluate, embodied carbon through
// EmbodiedWith with the backend the cell's integration style selects.
type cells struct {
	task    workload.Task
	fab     carbon.Fab
	configs []accel.Config
	procs   []carbon.Process
}

func materialize(task workload.Task, g dse.Grid, fab carbon.Fab) (*cells, error) {
	configs, procs, err := g.Materialize()
	if err != nil {
		return nil, err
	}
	return &cells{task: task, fab: fab, configs: configs, procs: procs}, nil
}

// modelFor returns the embodied-carbon backend a knob grid without a
// models axis prices a configuration with, and its name ("" for ACT).
func modelFor(c *accel.Config) (carbon.Model, string, error) {
	name, err := carbon.ModelForIntegration(c.Partition.Integration)
	if err != nil || name == "" {
		return nil, "", err
	}
	m, err := carbon.ModelByName(name)
	return m, name, err
}

// price evaluates cell i on the direct path.
func (cs *cells) price(i int64) (dse.Point, error) {
	c := cs.configs[i]
	cost, err := workload.Evaluate(cs.task, c)
	if err != nil {
		return dse.Point{}, err
	}
	m, name, err := modelFor(&c)
	if err != nil {
		return dse.Point{}, err
	}
	emb, err := c.EmbodiedWith(m, nil, cs.procs[i], cs.fab)
	if err != nil {
		return dse.Point{}, err
	}
	return dse.Point{Config: c, Delay: cost.Delay, Energy: cost.Energy, Embodied: emb, Area: c.TotalArea(), Model: name}, nil
}

// checkRepriced requires every kept point to equal its cell re-priced on
// the direct path, bit for bit.
func checkRepriced(cs *cells, ids []int64, kept []dse.Point) error {
	if len(ids) != len(kept) {
		return fmt.Errorf("%d kept IDs for %d kept points", len(ids), len(kept))
	}
	for k, id := range ids {
		if id < 0 || id >= int64(len(cs.configs)) {
			return fmt.Errorf("kept ID %d outside the grid", id)
		}
		want, err := cs.price(id)
		if err != nil {
			return err
		}
		got := kept[k]
		if got.Config.ID != "k"+strconv.FormatInt(id+1, 10) || got.Config != want.Config {
			return fmt.Errorf("kept point %s is not grid cell %d", got.Config.ID, id)
		}
		if got.Delay != want.Delay || got.Energy != want.Energy || got.Embodied != want.Embodied ||
			got.Area != want.Area || got.Model != want.Model {
			return fmt.Errorf("kept point %s does not re-price exactly: engine (D %v, E %v, C %v, %q), direct (D %v, E %v, C %v, %q)",
				got.Config.ID, got.Delay, got.Energy, got.Embodied, got.Model, want.Delay, want.Energy, want.Embodied, want.Model)
		}
	}
	return nil
}

// sampleCells prices n distinct seeded cells on the direct path.
func sampleCells(cs *cells, seed uint64, n int) ([]lpt, []int64, error) {
	size := len(cs.configs)
	if n > size {
		n = size
	}
	var pts []lpt
	var ids []int64
	for _, i := range newRNG(seed, 10).pick(n, size) {
		p, err := cs.price(int64(i))
		if err != nil {
			return nil, nil, err
		}
		pts = append(pts, lagrange(p))
		ids = append(ids, int64(i))
	}
	return pts, ids, nil
}

// checkSubset requires every kept ID to be among the evaluated ones
// (ascending).
func checkSubset(kept, evaluated []int64) error {
	in := make(map[int64]bool, len(evaluated))
	for i, id := range evaluated {
		if i > 0 && id <= evaluated[i-1] {
			return fmt.Errorf("evaluated IDs are not strictly ascending at %d", i)
		}
		in[id] = true
	}
	for _, id := range kept {
		if !in[id] {
			return fmt.Errorf("kept point k%d was never evaluated", id+1)
		}
	}
	return nil
}

// hypervolume is the area a 2-D minimization front dominates up to ref.
func hypervolume(front []lpt, ref lpt) float64 {
	pts := append([]lpt(nil), front...)
	sort.Slice(pts, func(i, j int) bool {
		return pts[i].X < pts[j].X || (pts[i].X == pts[j].X && pts[i].Y < pts[j].Y)
	})
	hv, top := 0.0, ref.Y
	for _, p := range pts {
		if p.X >= ref.X || p.Y >= top {
			continue
		}
		hv += (ref.X - p.X) * (top - p.Y)
		top = p.Y
	}
	return hv
}

// hvRatio returns HV(cand)/HV(oracle) with a shared reference point: the
// worst coordinate of either front pushed out by a tenth of its range.
func hvRatio(cand, oracle []lpt) float64 {
	minX, maxX, minY, maxY := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for _, f := range [][]lpt{cand, oracle} {
		for _, p := range f {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	ref := lpt{maxX + 0.1*(maxX-minX), maxY + 0.1*(maxY-minY)}
	o := hypervolume(oracle, ref)
	if o <= 0 {
		return 0
	}
	return hypervolume(cand, ref) / o
}

// checkSameBytes requires a job's result to equal the synchronous reply to
// the same request.
func checkSameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s differs from the synchronous reply (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}
