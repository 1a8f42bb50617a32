package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"cordoba/internal/accel"
	"cordoba/internal/dse"
	"cordoba/internal/nn"
	"cordoba/internal/pareto"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// setupReps is how often a run repeats its set-up before the first
// operation; more repeats follow each timed operation. setup_s is the
// median over all of them.
const setupReps = 101

// sampleSize is the number of seeded cells priced on the direct path to
// look for a wrongly pruned design.
const sampleSize = 1000

// timeOps runs op until the run's time is spent, at least minOps times and
// always in whole rounds of round operations. Each operation starts on a
// freshly collected heap; its wall time and allocated bytes are recorded,
// and post then checks its output outside the timed region.
func timeOps[T any](r *run, minOps, round int, op func(i int) (T, error), post func(i int, v T)) (durs, allocs []float64) {
	start := time.Now()
	for i := 0; i < minOps || i%round != 0 || time.Since(start).Seconds() < r.seconds; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		v, err := op(i)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", i, err)
			continue
		}
		durs = append(durs, d.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		post(i, v)
	}
	return durs, allocs
}

// reportOps sets the end-to-end metrics every workload reports from its
// timed operations.
func reportOps(r *run, durs, allocs []float64, ops int64, span float64) {
	fmt.Printf("op_ms over %d operations: min %.2f, q1 %.2f, median %.2f, q3 %.2f, max %.2f\n", len(durs),
		quantile(durs, 0)*1e3, quantile(durs, 0.25)*1e3, median(durs)*1e3, quantile(durs, 0.75)*1e3, quantile(durs, 1)*1e3)
	r.set("op_ms", "ms", median(durs)*1e3)
	r.set("ops_per_s", "1/s", float64(ops)/span)
	r.set("alloc_mb", "MB", median(allocs)/1e6)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// libSetup is a library workload's set-up: the task and the seeded grids
// are built and the grids validated, each repeat timed.
type libSetup struct {
	r     *run
	build func(uint64) []dse.Grid
	times []float64
}

// setupLibrary repeats the set-up setupReps times and returns its output.
func setupLibrary(r *run, build func(uint64) []dse.Grid) (*libSetup, workload.Task, []dse.Grid, error) {
	s := &libSetup{r: r, build: build}
	task, gs, err := s.repeat(setupReps)
	return s, task, gs, err
}

func (s *libSetup) repeat(n int) (task workload.Task, gs []dse.Grid, err error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if task, err = workload.PaperTask(libTask); err != nil {
			return task, nil, err
		}
		gs = s.build(s.r.seed)
		for _, g := range gs {
			if err := g.Validate(); err != nil {
				return task, nil, fmt.Errorf("seeded grid: %w", err)
			}
		}
		s.times = append(s.times, time.Since(t0).Seconds())
	}
	return task, gs, nil
}

// again repeats the set-up n times between timed operations, so that
// setup_s samples the machine over the whole run and not only over its
// first few milliseconds.
func (s *libSetup) again(n int) {
	if _, _, err := s.repeat(n); err != nil {
		s.r.fail("repeated set-up: %v", err)
	}
}

// report sets setup_s, the median of every timed set-up.
func (s *libSetup) report() { s.r.set("setup_s", "s", median(s.times)) }

// streamRun is one exhaustive exploration and the private memo it used.
type streamRun struct {
	res  *dse.StreamResult
	memo *dse.MemoCache
}

func exhaustive(task workload.Task, g dse.Grid, workers int) (streamRun, error) {
	memo := dse.NewMemoCache(0)
	res, err := dse.EvaluateStream(context.Background(), task, g, libFab, libCI, dse.StreamOptions{Workers: workers, Memo: memo})
	return streamRun{res, memo}, err
}

// counters are an exploration's exact work counters.
func (s streamRun) counters() map[string]int64 {
	hits, misses := s.memo.Stats()
	return map[string]int64{
		"dse.cells":          s.res.Total,
		"dse.prepruned":      s.res.PrePruned,
		"dse.offered":        s.res.Offered,
		"dse.kept":           int64(s.res.Kept()),
		"dse.memo.hits":      hits,
		"dse.memo.misses":    misses,
		"dse.memo.evictions": s.memo.Evictions(),
	}
}

func exploreFlat(r *run) error      { return explore(r, flatGrid) }
func explorePartition(r *run) error { return explore(r, partitionGrid) }

func one(build func(uint64) dse.Grid) func(uint64) []dse.Grid {
	return func(seed uint64) []dse.Grid { return []dse.Grid{build(seed)} }
}

// explore times repeated exhaustive explorations of the seeded grid, each
// with a private (cold) memo, then checks the envelope. The explorations run
// on one worker: on a shared two-vCPU machine, two workers are slowed
// whenever either vCPU is contended, and their medians spread past the
// bound from run to run; one worker leaves a core for the collector.
func explore(r *run, build func(uint64) dse.Grid) error {
	setup, task, gs, err := setupLibrary(r, one(build))
	if err != nil {
		return err
	}
	g := gs[0]
	var first *dse.StreamResult
	if r.trace {
		if first, err = traceExplore(r, task, g); err != nil {
			return err
		}
	} else {
		durs, allocs := timeOps(r, 3, 1,
			func(int) (streamRun, error) { return exhaustive(task, g, 1) },
			func(_ int, s streamRun) {
				setup.again(16)
				r.pinCounters("", s.counters())
				if first == nil {
					first = s.res
				} else if !slices.Equal(first.IDs, s.res.IDs) {
					r.fail("exploration kept %v, the first kept %v", s.res.IDs, first.IDs)
				}
			})
		reportOps(r, durs, allocs, int64(len(durs)), sum(durs))
	}
	setup.report()
	if first == nil {
		return fmt.Errorf("no exploration completed")
	}
	return checkExploration(r, task, g, first)
}

// checkExploration runs the exhaustive engine's output checks.
func checkExploration(r *run, task workload.Task, g dse.Grid, res *dse.StreamResult) error {
	if res.Total != g.Size() {
		r.fail("exploration evaluated %d cells, the grid has %d", res.Total, g.Size())
	}
	cs, err := materialize(task, g, libFab)
	if err != nil {
		return err
	}
	env := lagrangeAll(res.Space.Points)
	if err := checkConvex(env); err != nil {
		r.fail("%v", err)
	}
	if err := checkRepriced(cs, res.IDs, res.Space.Points); err != nil {
		r.fail("%v", err)
	}
	sample, ids, err := sampleCells(cs, r.seed, sampleSize)
	if err != nil {
		return err
	}
	if err := checkNotBelow(env, sample, ids); err != nil {
		r.fail("%v", err)
	}
	if err := checkOptimalAt(env, libCI, res.OptimalAt); err != nil {
		r.fail("%v", err)
	}
	return nil
}

// tracedPlatform is the benchmark-side workload.Platform of the traced
// rebuild: it replays memoized shape profiles through ShapeProfile.Cost and
// times and counts every call.
type tracedPlatform struct {
	cfg    *accel.Config
	prof   []*accel.ShapeProfile // by nn.KernelIndex
	layers []int64               // layers per kernel, by nn.KernelIndex

	cost              time.Duration
	calls, layerEvals int64
}

func newTracedPlatform() (*tracedPlatform, error) {
	p := &tracedPlatform{prof: make([]*accel.ShapeProfile, nn.NumKernels()), layers: make([]int64, nn.NumKernels())}
	for _, id := range nn.AllKernels() {
		net, err := nn.Kernel(id)
		if err != nil {
			return nil, err
		}
		i, _ := nn.KernelIndex(id)
		p.layers[i] = int64(len(net.Layers))
	}
	return p, nil
}

func (p *tracedPlatform) KernelCost(id nn.KernelID) (workload.KernelCost, error) {
	i, ok := nn.KernelIndex(id)
	if !ok || p.prof[i] == nil {
		return workload.KernelCost{}, fmt.Errorf("kernel %s has no profile", id)
	}
	t := time.Now()
	kc := p.prof[i].Cost(*p.cfg)
	p.cost += time.Since(t)
	p.calls++
	p.layerEvals += p.layers[i]
	return kc, nil
}

func (p *tracedPlatform) LeakagePower() units.Power { return p.cfg.LeakagePower() }

// profiled returns the kernels the engine profiles for a task: those the
// task names, in canonical order.
func profiled(task workload.Task) []nn.KernelID {
	var out []nn.KernelID
	for _, id := range nn.AllKernels() {
		if _, ok := task.Calls[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// stages is the traced rebuild's time per layer and its work counts.
type stages struct {
	wall                                                     time.Duration
	compile, materialize, profiles, cost, evaluate, embodied time.Duration
	front, offer                                             time.Duration
	costCalls, layerEvals, evalCalls, embCalls               int64
	memoMisses, prePruned, offered                           int64
	ids                                                      []int64
}

// self returns the sum of the stage self times less the clock reads the
// tracing itself adds (one timed pair per Cost, Evaluate and EmbodiedWith
// call).
func (s *stages) self(timerPair time.Duration) time.Duration {
	raw := s.compile + s.materialize + s.profiles + s.evaluate + s.embodied + s.front + s.offer
	return raw - time.Duration(s.costCalls+s.evalCalls+s.embCalls)*timerPair
}

// timerPair measures the cost of one time.Now/time.Since pair.
func timerPair() time.Duration {
	const n = 200000
	var acc time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		acc += time.Since(t)
	}
	_ = acc // read so the pairs are not optimized away
	return time.Since(t0) / n
}

// embKey is an embodied-carbon equivalence class within one shape: cells
// with the same process, partition and area parameters price to the same
// footprint whatever their V_DD.
type embKey struct {
	node                  string
	part                  accel.Partition
	base, perArray, perMB units.Area
}

// rebuild re-runs an exhaustive exploration with one worker from public
// calls — Grid.Validate, Grid.Materialize, MemoCache.Profiles,
// ShapeProfile.Cost behind tracedPlatform, EmbodiedWith, FrontScratch.Front
// and Stream.Offer — timing each layer and recording spans per shape.
func rebuild(task workload.Task, g dse.Grid, spans *spanLog) (*stages, error) {
	st := &stages{}
	t0 := time.Now()
	root := spans.reserve("dse.explore", 0, "")

	t := time.Now()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	st.compile = time.Since(t)
	spans.add("dse.compile", root, "", t, t.Add(st.compile))

	t = time.Now()
	configs, procs, err := g.Materialize()
	if err != nil {
		return nil, err
	}
	st.materialize = time.Since(t)
	spans.add("dse.materialize", root, "", t, t.Add(st.materialize))

	kernels := profiled(task)
	memo := dse.NewMemoCache(0)
	plat, err := newTracedPlatform()
	if err != nil {
		return nil, err
	}
	shapes := len(g.MACArrays) * len(g.SRAMMB)
	cellsPer := len(configs) / shapes
	dst := make([]*accel.ShapeProfile, len(kernels))
	lp := make([]pareto.Point, cellsPer)
	emb := make(map[embKey]units.Carbon)
	var (
		fs     pareto.FrontScratch
		stream pareto.Stream
	)
	for si := 0; si < shapes; si++ {
		base := si * cellsPer
		shape := spans.reserve("dse.shape", root, "")
		ts := time.Now()

		t = time.Now()
		if err := memo.Profiles(configs[base], kernels, dst); err != nil {
			return nil, err
		}
		d := time.Since(t)
		st.profiles += d
		spans.add("dse.memo.profiles", shape, "", t, t.Add(d))
		for i, id := range kernels {
			ki, _ := nn.KernelIndex(id)
			plat.prof[ki] = dst[i]
		}

		t = time.Now()
		clear(emb)
		for off := 0; off < cellsPer; off++ {
			c := &configs[base+off]
			k := embKey{procs[base+off].Node, c.Partition, c.Params.BaseArea, c.Params.AreaPerArray, c.Params.AreaPerMB}
			e, ok := emb[k]
			if !ok {
				m, _, err := modelFor(c)
				if err != nil {
					return nil, err
				}
				te := time.Now()
				e, err = c.EmbodiedWith(m, nil, procs[base+off], libFab)
				st.embodied += time.Since(te)
				if err != nil {
					return nil, err
				}
				st.embCalls++
				emb[k] = e
			}
			plat.cfg = c
			tw := time.Now()
			cost, err := workload.Evaluate(task, plat)
			st.evaluate += time.Since(tw)
			if err != nil {
				return nil, err
			}
			st.evalCalls++
			lp[off] = pareto.Point{X: cost.Energy.Joules() * cost.Delay.Seconds(), Y: e.Grams() * cost.Delay.Seconds()}
		}
		spans.add("dse.price", shape, "", t, time.Now())

		t = time.Now()
		front := fs.Front(lp)
		d = time.Since(t)
		st.front += d
		spans.add("pareto.front", shape, "", t, t.Add(d))
		st.prePruned += int64(cellsPer - len(front))

		t = time.Now()
		for _, idx := range front {
			stream.Offer(int64(base+idx), lp[idx])
		}
		d = time.Since(t)
		st.offer += d
		spans.add("pareto.offer", shape, "", t, t.Add(d))
		spans.finish(shape, ts, time.Now())
	}
	st.wall = time.Since(t0)
	spans.finish(root, t0, t0.Add(st.wall))
	st.cost, st.costCalls, st.layerEvals = plat.cost, plat.calls, plat.layerEvals
	_, st.memoMisses = memo.Stats()
	st.offered = stream.Offered()
	st.ids = stream.IDs()
	return st, nil
}

// traceExplore alternates an untraced single-worker exploration with the
// traced rebuild of the same grid and reports per-layer medians. The
// rebuild must reproduce the engine's envelope and pruning counts exactly.
func traceExplore(r *run, task workload.Task, g dse.Grid) (*dse.StreamResult, error) {
	var (
		first                          *dse.StreamResult
		untraced, traced, self, unattr []float64
		all                            []*stages
	)
	tp := timerPair()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < r.seconds; i++ {
		runtime.GC()
		t := time.Now()
		s, err := exhaustive(task, g, 1)
		d := time.Since(t)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: exploration failed: %v\n", err)
			continue
		}
		r.pinCounters("", s.counters())
		if first == nil {
			first = s.res
		}
		runtime.GC()
		st, err := rebuild(task, g, r.spans)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced rebuild failed: %v\n", err)
			continue
		}
		if !slices.Equal(st.ids, s.res.IDs) || st.prePruned != s.res.PrePruned || st.offered != s.res.Offered || st.evalCalls != s.res.Total {
			r.fail("traced rebuild kept %v (pre-pruned %d, offered %d), the engine kept %v (pre-pruned %d, offered %d)",
				st.ids, st.prePruned, st.offered, s.res.IDs, s.res.PrePruned, s.res.Offered)
		}
		r.pinCounters("", map[string]int64{
			"accel.cost.calls":          st.costCalls,
			"accel.layer_evals":         st.layerEvals,
			"accel.shape_profile.calls": st.memoMisses,
			"carbon.embodied.calls":     st.embCalls,
			"workload.evaluate.calls":   st.evalCalls,
		})
		untraced = append(untraced, d.Seconds())
		traced = append(traced, st.wall.Seconds())
		self = append(self, st.self(tp).Seconds())
		unattr = append(unattr, d.Seconds()-st.self(tp).Seconds())
		all = append(all, st)
	}
	if len(all) == 0 {
		return first, fmt.Errorf("no traced exploration completed")
	}
	med := func(f func(*stages) time.Duration) float64 {
		xs := make([]float64, len(all))
		for i, st := range all {
			xs[i] = f(st).Seconds()
		}
		return median(xs)
	}
	for k, v := range r.counters {
		r.set(k, "count", float64(v))
	}
	r.set("accel.cost.ns", "ns", med(func(s *stages) time.Duration { return s.cost })*1e9)
	r.set("accel.shape_profile.us", "us", med(func(s *stages) time.Duration { return s.profiles })*1e6)
	r.set("carbon.embodied.us", "us", med(func(s *stages) time.Duration { return s.embodied })*1e6)
	r.set("workload.evaluate.ns", "ns", med(func(s *stages) time.Duration { return s.evaluate - s.cost })*1e9)
	r.set("pareto.front.ns", "ns", med(func(s *stages) time.Duration { return s.front })*1e9)
	r.set("pareto.offer.ns", "ns", med(func(s *stages) time.Duration { return s.offer })*1e9)
	r.set("dse.compile.us", "us", med(func(s *stages) time.Duration { return s.compile })*1e6)
	r.set("dse.materialize.ms", "ms", med(func(s *stages) time.Duration { return s.materialize })*1e3)
	r.set("dse.untraced_1w_s", "s", median(untraced))
	r.set("dse.stages_s", "s", median(self))
	r.set("dse.unattributed_s", "s", median(unattr))
	r.set("trace.overhead_s", "s", median(traced)-median(untraced))
	r.set("trace.timer_ns", "ns", float64(tp.Nanoseconds()))
	return first, nil
}
