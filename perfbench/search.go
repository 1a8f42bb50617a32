package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"cordoba/internal/accel"
	"cordoba/internal/dse"
	"cordoba/internal/nn"
	"cordoba/internal/workload"
)

// A search round runs searchSeeds surrogate seeds on each of searchGrids
// grids: the explore-flat grid of the workload seed and grids drawn from
// seeds derived from it. A search's cost depends on its grid and its seed,
// so the end-to-end figures average over a whole round; that keeps rounds
// of different workload seeds within a few percent of each other.
const (
	searchGrids = 4
	searchSeeds = 4
)

// searchCase is one (grid, surrogate seed) pair of a round.
type searchCase struct {
	grid int
	seed uint64
}

func searchPlan(seed uint64) ([]searchCase, func(uint64) []dse.Grid) {
	r := newRNG(seed, 3)
	var cases []searchCase
	for g := 0; g < searchGrids; g++ {
		for k := 0; k < searchSeeds; k++ {
			cases = append(cases, searchCase{grid: g, seed: r.next()})
		}
	}
	grids := func(seed uint64) []dse.Grid {
		r := newRNG(seed, 4)
		gs := []dse.Grid{flatGrid(seed)}
		for len(gs) < searchGrids {
			gs = append(gs, flatGrid(r.next()))
		}
		return gs
	}
	return cases, grids
}

// searchRun is one surrogate search and the private memo it used.
type searchRun struct {
	res  *dse.SurrogateResult
	memo *dse.MemoCache
	gens []time.Time // OnProgress times, traced runs only
}

func surrogate(task workload.Task, g dse.Grid, seed uint64, workers int, progress bool) (searchRun, error) {
	s := searchRun{memo: dse.NewMemoCache(0)}
	opt := dse.SurrogateOptions{StreamOptions: dse.StreamOptions{Workers: workers, Memo: s.memo}, Seed: seed}
	if progress {
		opt.OnProgress = func(dse.SurrogateProgress) { s.gens = append(s.gens, time.Now()) }
	}
	var err error
	s.res, err = dse.EvaluateSurrogate(context.Background(), task, g, libFab, libCI, opt)
	return s, err
}

// counters are a search's exact work counters. Memo hits and misses are
// left out: the memo evicts a random quarter when full, so a search that
// revisits shapes after an eviction counts differently from run to run.
func (s searchRun) counters() map[string]int64 {
	return map[string]int64{
		"dse.surrogate.evals":       s.res.Evaluations,
		"dse.surrogate.generations": int64(s.res.Generations),
		"dse.surrogate.skipped":     s.res.Skipped,
		"dse.kept":                  int64(s.res.Kept()),
	}
}

// searchSurrogate times surrogate searches in whole rounds of the search
// plan, then checks every search against the exhaustive envelope of its
// grid, computed untimed. The searches run on one worker, like the timed
// explorations: a second worker saves about a tenth of a search and doubles
// its exposure to the shared machine's other load.
func searchSurrogate(r *run) error {
	cases, build := searchPlan(r.seed)
	setup, task, grids, err := setupLibrary(r, build)
	if err != nil {
		return err
	}
	results := make([]*dse.SurrogateResult, len(cases))
	keep := func(i int, s searchRun) {
		k := i % len(cases)
		r.pinCounters(fmt.Sprintf("search%d.", k), s.counters())
		if results[k] == nil {
			results[k] = s.res
		} else if !slices.Equal(results[k].IDs, s.res.IDs) {
			r.fail("search %d kept %v, its first run kept %v", k, s.res.IDs, results[k].IDs)
		}
	}
	if r.trace {
		if err := traceSearch(r, task, grids, cases, keep); err != nil {
			return err
		}
	} else {
		durs, allocs := timeOps(r, len(cases), len(cases),
			func(i int) (searchRun, error) {
				c := cases[i%len(cases)]
				return surrogate(task, grids[c.grid], c.seed, 1, false)
			},
			func(i int, s searchRun) {
				setup.again(1)
				keep(i, s)
			})
		if r.failed > 0 {
			return fmt.Errorf("%d searches failed", r.failed)
		}
		reportOps(r, perRound(durs, len(cases)), perRound(allocs, len(cases)), int64(len(durs)), sum(durs))
	}
	setup.report()

	minHV := math.Inf(1)
	for gi, g := range grids {
		oracle, err := exhaustive(task, g, 0)
		if err != nil {
			return err
		}
		cs, err := materialize(task, g, libFab)
		if err != nil {
			return err
		}
		oracleEnv := lagrangeAll(oracle.res.Space.Points)
		for k, c := range cases {
			if c.grid != gi {
				continue
			}
			res := results[k]
			if res == nil {
				return fmt.Errorf("search %d never completed", k)
			}
			if err := checkSearch(cs, res); err != nil {
				r.fail("search %d (grid %d, seed %d): %v", k, gi, c.seed, err)
			}
			hv := hvRatio(lagrangeAll(res.Space.Points), oracleEnv)
			fmt.Printf("search %d (grid %d, seed %d): hypervolume %.4f of the exhaustive envelope's\n", k, gi, c.seed, hv)
			minHV = math.Min(minHV, hv)
		}
	}
	r.set("dse.surrogate.hv_ratio_min", "ratio", minHV)
	return nil
}

// perRound returns the mean of each whole round of n consecutive values.
func perRound(xs []float64, n int) []float64 {
	var out []float64
	for i := 0; i+n <= len(xs); i += n {
		out = append(out, sum(xs[i:i+n])/float64(n))
	}
	return out
}

// checkSearch runs the surrogate's output checks. Its hypervolume against
// the exhaustive envelope is reported, not checked: see README.md.
func checkSearch(cs *cells, res *dse.SurrogateResult) error {
	if err := checkSubset(res.IDs, res.Evaluated); err != nil {
		return err
	}
	if n := int64(len(res.Evaluated)); res.Evaluations != n || res.Total != n || n > res.Budget {
		return fmt.Errorf("%d evaluations (%d listed, %d streamed) against a budget of %d", res.Evaluations, n, res.Total, res.Budget)
	}
	if err := checkConvex(lagrangeAll(res.Space.Points)); err != nil {
		return err
	}
	return checkRepriced(cs, res.IDs, res.Space.Points)
}

// traceSearch alternates single-worker searches with direct, timed pricing
// of the cells each search evaluated; the search time left over is the
// surrogate's own modelling (RBF fit, ranking, NSGA sorting).
func traceSearch(r *run, task workload.Task, grids []dse.Grid, cases []searchCase, keep func(int, searchRun)) error {
	css := make([]*cells, len(grids))
	for i, g := range grids {
		var err error
		if css[i], err = materialize(task, g, libFab); err != nil {
			return err
		}
	}
	kernels := profiled(task)
	var (
		model, genMs, pricing, searches []float64
		round                           map[string]float64
		rounds                          []map[string]float64
	)
	start := time.Now()
	for i := 0; i < len(cases) || i%len(cases) != 0 || time.Since(start).Seconds() < r.seconds; i++ {
		if i%len(cases) == 0 {
			round = map[string]float64{}
			rounds = append(rounds, round)
		}
		runtime.GC()
		root := r.spans.reserve("dse.surrogate.search", 0, "")
		t := time.Now()
		c := cases[i%len(cases)]
		s, err := surrogate(task, grids[c.grid], c.seed, 1, true)
		d := time.Since(t)
		r.spans.finish(root, t, t.Add(d))
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: search failed: %v\n", err)
			continue
		}
		keep(i, s)
		for j := 1; j < len(s.gens); j++ {
			genMs = append(genMs, s.gens[j].Sub(s.gens[j-1]).Seconds()*1e3)
		}

		runtime.GC()
		tp := time.Now()
		st, err := priceCells(css[c.grid], kernels, s.res.Evaluated, r.spans, root)
		dp := time.Since(tp)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: direct pricing failed: %v\n", err)
			continue
		}
		searches = append(searches, d.Seconds())
		pricing = append(pricing, dp.Seconds())
		model = append(model, d.Seconds()-dp.Seconds())
		round["accel.cost.calls"] += float64(st.costCalls)
		round["accel.cost.ns"] += float64(st.cost.Nanoseconds())
		round["accel.layer_evals"] += float64(st.layerEvals)
		round["accel.shape_profile.calls"] += float64(st.memoMisses)
		round["accel.shape_profile.us"] += float64(st.profiles.Microseconds())
		round["carbon.embodied.calls"] += float64(st.embCalls)
		round["carbon.embodied.us"] += float64(st.embodied.Microseconds())
		round["workload.evaluate.calls"] += float64(st.evalCalls)
		round["workload.evaluate.ns"] += float64((st.evaluate - st.cost).Nanoseconds())
		round["dse.surrogate.evals"] += float64(s.res.Evaluations)
		round["dse.surrogate.generations"] += float64(s.res.Generations)
		round["dse.surrogate.skipped"] += float64(s.res.Skipped)
		round["dse.kept"] += float64(s.res.Kept())
		h, m := s.memo.Stats()
		round["dse.memo.hits"] += float64(h)
		round["dse.memo.misses"] += float64(m)
		round["dse.cells"] += float64(s.res.Total)
	}
	if len(rounds) > 0 {
		for k := range rounds[0] {
			per := make([]float64, len(rounds))
			for i, rd := range rounds {
				per[i] = rd[k]
			}
			unit := "count"
			switch {
			case strings.HasSuffix(k, ".ns"):
				unit = "ns"
			case strings.HasSuffix(k, ".us"):
				unit = "us"
			}
			r.set(k, unit, median(per))
		}
	}
	r.set("dse.surrogate.generation_ms", "ms", median(genMs))
	r.set("dse.surrogate.model_s", "s", median(model))
	r.set("dse.surrogate.pricing_s", "s", median(pricing))
	r.set("dse.surrogate.search_1w_s", "s", median(searches))
	return nil
}

// priceCells prices the given grid cells one at a time through the
// memoized path the engines use — MemoCache.Profiles, ShapeProfile.Cost
// behind tracedPlatform, EmbodiedWith — timing each layer.
func priceCells(cs *cells, kernels []nn.KernelID, ids []int64, spans *spanLog, parent int64) (*stages, error) {
	st := &stages{}
	memo := dse.NewMemoCache(0)
	plat, err := newTracedPlatform()
	if err != nil {
		return nil, err
	}
	dst := make([]*accel.ShapeProfile, len(kernels))
	t0 := time.Now()
	for _, id := range ids {
		c := &cs.configs[id]
		t := time.Now()
		if err := memo.Profiles(*c, kernels, dst); err != nil {
			return nil, err
		}
		st.profiles += time.Since(t)
		for i, kid := range kernels {
			ki, _ := nn.KernelIndex(kid)
			plat.prof[ki] = dst[i]
		}
		m, _, err := modelFor(c)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if _, err := c.EmbodiedWith(m, nil, cs.procs[id], cs.fab); err != nil {
			return nil, err
		}
		st.embodied += time.Since(t)
		st.embCalls++
		plat.cfg = c
		t = time.Now()
		if _, err := workload.Evaluate(cs.task, plat); err != nil {
			return nil, err
		}
		st.evaluate += time.Since(t)
		st.evalCalls++
	}
	spans.add("dse.surrogate.pricing", parent, "", t0, time.Now())
	st.cost, st.costCalls, st.layerEvals = plat.cost, plat.calls, plat.layerEvals
	_, st.memoMisses = memo.Stats()
	return st, nil
}
