package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cordoba/api"
	"cordoba/client"
	"cordoba/internal/accel"
	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/server"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// serve-mix drives an in-process cordobad over loopback TCP with two
// closed-loop clients. Every round starts a fresh daemon and replays the
// same seeded script, so a round's cache and memo counters are exact: each
// client owns a disjoint slice of the request space (its own CI_use values,
// accounting areas and MAC-array pool), so no two in-flight requests share
// a response-cache key or a shape profile.
const (
	serveClients = 2
	// Per client and round: 10 distinct 121-config requests (each paper task
	// twice) plus 5 repeats (a third of them), 5 knob-range grids (one per
	// task), 4 accounting requests and one job, whose result is compared
	// with a synchronous reply to the same body. That is 42 sync /v1/dse
	// requests a round. Fixed task counts keep rounds of different seeds
	// equally costly.
	dseOriginals = 10
	dseRepeats   = 5
	knobRequests = 5
	acctRequests = 4
	jobRequests  = 1
	// minRounds guarantees at least 100 sync /v1/dse requests a run.
	minRounds = 3
)

var (
	paperTasks = []string{workload.TaskAllKernels, workload.TaskXR10, workload.TaskAI10, workload.TaskXR5, workload.TaskAI5}
	fabNames   = []string{"coal-heavy", "taiwan", "korea", "renewable"}
)

// op is one scripted request.
type op struct {
	kind string // "dse121", "knob", "acct", "job"
	body []byte
	orig int // index of the original request a repeat replays; -1 otherwise
	task string
	fab  string
	ci   float64
	grid dse.Grid // knob and job requests
}

// makeScript builds client c's request script for one round.
func makeScript(seed uint64, c int) ([]op, error) {
	r := newRNG(seed, 100+uint64(c))
	var ops []op
	add := func(o op) {
		o.orig = -1
		ops = append(ops, o)
	}
	// The client's private CI_use values and MAC-array pool.
	ci := func(j int) float64 { return float64(150 + 40*j + 20*c) }
	macPool := make([]int, 6)
	for i := range macPool {
		macPool[i] = 8*(i+1) + 4*c + 8*6*c // client 0: 8…48, client 1: 60…100
	}
	sramPool := []float64{1, 2, 4, 8, 16}
	pick := func(k int, pool []int) []int {
		var out []int
		for _, i := range r.pick(k, len(pool)) {
			out = append(out, pool[i])
		}
		return out
	}
	pickF := func(k int, pool []float64) []float64 {
		var out []float64
		for _, i := range r.pick(k, len(pool)) {
			out = append(out, pool[i])
		}
		return out
	}
	knobGrid := func(macs, srams, vdds, nodes int) dse.Grid {
		return dse.Grid{
			MACArrays: pick(macs, macPool),
			SRAMMB:    pickF(srams, sramPool),
			VDDScales: pickF(vdds, []float64{0.7, 0.8, 0.9, 1.0}),
			Nodes:     pickNames(r, nodes, []string{"10nm", "7nm", "5nm", "3nm"}),
		}
	}
	knobBody := func(o *op) error {
		g := o.grid
		b, err := json.Marshal(api.DSERequest{
			Task: o.task, Fab: o.fab, CIUse: o.ci,
			Knobs: &api.KnobRangeSpec{MACArrays: g.MACArrays, SRAMMB: g.SRAMMB, VDDScales: g.VDDScales, Nodes: g.Nodes},
		})
		o.body = b
		return err
	}

	taskOrder := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = paperTasks[i%len(paperTasks)]
		}
		for i := len(out) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	dseTasks, knobTasks := taskOrder(dseOriginals), taskOrder(knobRequests)
	for j := 0; j < dseOriginals; j++ {
		o := op{kind: "dse121", task: dseTasks[j], fab: fabNames[r.intn(len(fabNames))], ci: ci(j)}
		b, err := json.Marshal(api.DSERequest{Task: o.task, Fab: o.fab, CIUse: o.ci})
		if err != nil {
			return nil, err
		}
		o.body = b
		add(o)
	}
	for j := 0; j < knobRequests; j++ {
		o := op{kind: "knob", task: knobTasks[j], fab: fabNames[r.intn(len(fabNames))], ci: ci(dseOriginals + j)}
		o.grid = knobGrid(3, 2, 3, 2)
		if err := knobBody(&o); err != nil {
			return nil, err
		}
		add(o)
	}
	for j := 0; j < acctRequests; j++ {
		b, err := json.Marshal(api.AccountingRequest{
			Process: []string{"14nm", "7nm", "5nm"}[r.intn(3)],
			Fab:     fabNames[r.intn(len(fabNames))],
			AreaCM2: 0.5 + 0.25*float64(j) + 0.1*float64(c),
			Yield:   api.YieldSpec{Value: 0.9},
		})
		if err != nil {
			return nil, err
		}
		add(op{kind: "acct", body: b})
	}
	for j := 0; j < jobRequests; j++ {
		o := op{kind: "job", task: []string{workload.TaskXR10, workload.TaskAI10}[r.intn(2)], fab: fabNames[r.intn(len(fabNames))], ci: ci(dseOriginals + knobRequests + j)}
		o.grid = knobGrid(6, 4, 4, 2)
		if err := knobBody(&o); err != nil {
			return nil, err
		}
		add(o)
	}
	// Shuffle, then slot each repeat somewhere after its original.
	for i := len(ops) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	var originals []int // positions of the 121-config originals
	for i, o := range ops {
		if o.kind == "dse121" {
			originals = append(originals, i)
		}
	}
	for _, k := range r.pick(dseRepeats, dseOriginals) {
		orig := originals[k]
		pos := orig + 1 + r.intn(len(ops)-orig)
		rep := ops[orig]
		rep.orig = orig
		ops = append(ops[:pos], append([]op{rep}, ops[pos:]...)...)
		for i := range ops {
			if i != pos && ops[i].orig >= pos {
				ops[i].orig++
			}
		}
		for j := range originals {
			if originals[j] >= pos {
				originals[j]++
			}
		}
	}
	return ops, nil
}

// exchange is one timed HTTP round trip.
type exchange struct {
	route  string
	status int
	body   []byte
	dur    time.Duration
	start  time.Time
}

// outcome is what one scripted request produced.
type outcome struct {
	main    exchange   // the request itself (a job's submit)
	extra   []exchange // a job's result fetch and its synchronous twin
	jobLat  time.Duration
	events  int
	waitLag time.Duration
	status  api.JobStatus
	err     error
}

// daemon is one in-process cordobad.
type daemon struct {
	base   string
	cancel context.CancelFunc
	done   chan error
	dir    string
}

// startDaemon starts cordobad on a loopback port with a fresh job
// directory and returns once /healthz answers 200.
func startDaemon(root string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{dir: dir, done: make(chan error, 1)}
	srv := server.New(server.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		JobDir: dir,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	d.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() { d.done <- srv.Serve(ctx, ln, 10*time.Second) }()
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not healthy after 10 s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	hc.CloseIdleConnections()
	return d, time.Since(t0), nil
}

// stop shuts the daemon down, waits for it, and removes its job directory.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// promCounters reads the unlabelled cordobad_* series from /metrics.
func promCounters(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// doHTTP runs one timed round trip, reading the whole body.
func doHTTP(hc *http.Client, method, url, route string, body []byte) exchange {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	ex := exchange{route: route, start: time.Now()}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return ex
	}
	resp, err := hc.Do(req)
	if err != nil {
		ex.dur = time.Since(ex.start)
		return ex
	}
	ex.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.dur = time.Since(ex.start)
	if err == nil {
		ex.status = resp.StatusCode
	}
	return ex
}

// runScript plays one client's script against the daemon, closed loop.
func runScript(base string, ops []op) []outcome {
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	cl := client.New(base, client.WithHTTPClient(hc))
	out := make([]outcome, len(ops))
	for i, o := range ops {
		switch o.kind {
		case "dse121", "knob":
			out[i].main = doHTTP(hc, "POST", base+"/v1/dse", "/v1/dse", o.body)
		case "acct":
			out[i].main = doHTTP(hc, "POST", base+"/v1/accounting", "/v1/accounting", o.body)
		case "job":
			out[i] = runJob(hc, cl, base, o)
		}
	}
	return out
}

// runJob submits a knob-range job, waits for it over SSE with the typed
// client, fetches its result and then the synchronous reply to the same
// body.
func runJob(hc *http.Client, cl *client.Client, base string, o op) outcome {
	var out outcome
	out.main = doHTTP(hc, "POST", base+"/v1/jobs", "/v1/jobs", o.body)
	if out.main.status != http.StatusAccepted {
		out.err = fmt.Errorf("job submit answered %d: %s", out.main.status, out.main.body)
		return out
	}
	var st api.JobStatus
	if err := json.Unmarshal(out.main.body, &st); err != nil {
		out.err = fmt.Errorf("job submit reply: %w", err)
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wait := exchange{route: "/v1/jobs/{id}/events", start: time.Now()}
	st, err := cl.WaitJobProgress(ctx, st.ID, func(api.JobStatus) { out.events++ })
	seen := time.Now()
	wait.dur = seen.Sub(wait.start)
	wait.status = http.StatusOK
	out.extra = append(out.extra, wait)
	if err != nil {
		out.err = fmt.Errorf("wait for job %s: %w", st.ID, err)
		return out
	}
	out.status = st
	if st.FinishedAt != nil {
		out.waitLag = seen.Sub(*st.FinishedAt)
	}
	res := doHTTP(hc, "GET", base+"/v1/jobs/"+st.ID+"/result", "/v1/jobs/{id}/result", nil)
	out.jobLat = time.Since(out.main.start)
	sync := doHTTP(hc, "POST", base+"/v1/dse", "/v1/dse", o.body)
	out.extra = append(out.extra, res, sync)
	return out
}

// roundStats is one round's measurements.
type roundStats struct {
	start        time.Time
	setup, phase time.Duration
	requests     int
	allocs       uint64
	outcomes     [][]outcome
	prom         map[string]float64
}

// serveRound starts a daemon, plays both scripts, scrapes /metrics and
// stops the daemon.
func serveRound(root string, scripts [][]op) (*roundStats, error) {
	d, setup, err := startDaemon(root)
	if err != nil {
		return nil, err
	}
	rs := &roundStats{setup: setup, outcomes: make([][]outcome, len(scripts))}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	rs.start = t0
	var wg sync.WaitGroup
	for c := range scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rs.outcomes[c] = runScript(d.base, scripts[c])
		}(c)
	}
	wg.Wait()
	rs.phase = time.Since(t0)
	runtime.ReadMemStats(&m1)
	rs.allocs = m1.TotalAlloc - m0.TotalAlloc
	for _, outs := range rs.outcomes {
		for _, o := range outs {
			rs.requests += 1 + len(o.extra)
		}
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	rs.prom, err = promCounters(hc, d.base)
	hc.CloseIdleConnections()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	return rs, err
}

// counters are a round's exact work counters, read from /metrics.
func (rs *roundStats) counters() map[string]int64 {
	c := map[string]int64{}
	for k, name := range map[string]string{
		"server.cache.hits":   "cordobad_cache_hits_total",
		"server.cache.misses": "cordobad_cache_misses_total",
		"dse.memo.hits":       "cordobad_memo_hits_total",
		"dse.memo.misses":     "cordobad_memo_misses_total",
		"dse.memo.evictions":  "cordobad_memo_evictions_total",
		"dse.cells":           "cordobad_dse_points_streamed_total",
		"dse.pruned":          "cordobad_dse_points_pruned_total",
		"job.checkpoints":     "cordobad_jobs_checkpoints_total",
		"job.submitted":       "cordobad_jobs_submitted_total",
	} {
		c[k] = int64(rs.prom[name])
	}
	c["server.requests"] = int64(rs.requests)
	return c
}

func serveMix(r *run) error {
	scripts := make([][]op, serveClients)
	for c := range scripts {
		var err error
		if scripts[c], err = makeScript(r.seed, c); err != nil {
			return err
		}
	}
	root := filepath.Join(r.dir, "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	var (
		rounds                       []*roundStats
		setups, phases, dseLat, jobs []float64
		requests                     int
		phase                        time.Duration
		allocs                       []float64
	)
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < r.seconds; i++ {
		runtime.GC()
		rs, err := serveRound(root, scripts)
		if err != nil {
			return err
		}
		rounds = append(rounds, rs)
		r.pinCounters("", rs.counters())
		setups = append(setups, rs.setup.Seconds())
		phases = append(phases, rs.phase.Seconds())
		requests += rs.requests
		phase += rs.phase
		allocs = append(allocs, float64(rs.allocs)/float64(rs.requests))
		for c, outs := range rs.outcomes {
			for k, o := range outs {
				r.attempted += int64(1 + len(o.extra))
				if o.err != nil {
					r.failed++
					fmt.Fprintf(os.Stderr, "perfbench: client %d request %d: %v\n", c, k, o.err)
					continue
				}
				switch scripts[c][k].kind {
				case "dse121", "knob":
					dseLat = append(dseLat, o.main.dur.Seconds())
				case "job":
					dseLat = append(dseLat, o.extra[2].dur.Seconds())
					jobs = append(jobs, o.jobLat.Seconds())
				}
			}
		}
	}
	r.set("setup_s", "s", median(setups))
	fmt.Printf("rounds: %d; round ms: q1 %.2f, median %.2f, q3 %.2f\n", len(rounds),
		quantile(phases, 0.25)*1e3, median(phases)*1e3, quantile(phases, 0.75)*1e3)
	r.set("op_ms", "ms", median(phases)*1e3)
	r.set("ops_per_s", "1/s", float64(requests)/phase.Seconds())
	r.set("alloc_mb", "MB", median(allocs)/1e6)
	r.set("serve.dse_p50_ms", "ms", median(dseLat)*1e3)
	r.set("serve.dse_p90_ms", "ms", quantile(dseLat, 0.9)*1e3)
	r.set("serve.job_p50_s", "s", median(jobs))
	r.set("serve.dse_requests", "count", float64(len(dseLat)))
	if r.trace {
		if err := traceServe(r, scripts, rounds); err != nil {
			return err
		}
	}
	return checkServe(r, scripts, rounds)
}

// checkServe runs the serve-mix output checks: status codes everywhere;
// every round byte-identical to the first; cached replies identical to the
// first reply; job results identical to their synchronous twins; and the
// envelope of every DSE reply of the first round checked from first
// principles.
func checkServe(r *run, scripts [][]op, rounds []*roundStats) error {
	first := rounds[0]
	for ri, rs := range rounds {
		for c, outs := range rs.outcomes {
			for k, o := range outs {
				o2 := scripts[c][k]
				if o.err != nil {
					continue
				}
				want := http.StatusOK
				if o2.kind == "job" {
					want = http.StatusAccepted
				}
				if o.main.status != want {
					r.fail("round %d client %d request %d (%s) answered %d, want %d", ri, c, k, o2.kind, o.main.status, want)
					continue
				}
				if o2.kind == "job" {
					if o.status.State != api.JobSucceeded {
						r.fail("round %d client %d job ended %s: %s", ri, c, o.status.State, o.status.Error)
						continue
					}
					res, sync := o.extra[1], o.extra[2]
					if res.status != http.StatusOK || sync.status != http.StatusOK {
						r.fail("round %d client %d job result answered %d, its sync twin %d", ri, c, res.status, sync.status)
						continue
					}
					if err := checkSameBytes("job result", res.body, sync.body); err != nil {
						r.fail("round %d client %d: %v", ri, c, err)
					}
					if !bytes.Equal(sync.body, first.outcomes[c][k].extra[2].body) {
						r.fail("round %d client %d: job's sync reply differs from round 0", ri, c)
					}
					continue
				}
				if o2.orig >= 0 && !bytes.Equal(o.main.body, outs[o2.orig].main.body) {
					r.fail("round %d client %d request %d: cached reply differs from the first reply", ri, c, k)
				}
				if !bytes.Equal(o.main.body, first.outcomes[c][k].main.body) {
					r.fail("round %d client %d request %d (%s): reply differs from round 0", ri, c, k, o2.kind)
				}
			}
		}
	}
	for c, outs := range first.outcomes {
		for k, o := range outs {
			o2 := scripts[c][k]
			if o.err != nil || o2.orig >= 0 || o.main.status >= 300 {
				continue
			}
			var err error
			switch o2.kind {
			case "dse121":
				err = checkDSE121(o2, o.main.body)
			case "knob":
				err = checkKnobReply(o2, o.main.body)
			case "job":
				if len(o.extra) == 3 {
					err = checkKnobReply(o2, o.extra[2].body)
				}
			}
			if err != nil {
				r.fail("client %d request %d (%s): %v", c, k, o2.kind, err)
			}
		}
	}
	return nil
}

// replyEnvelope decodes a DSE reply and returns its ever-optimal points in
// envelope order.
func replyEnvelope(body []byte) (*api.DSEResponse, []lpt, error) {
	var resp api.DSEResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	byID := map[string]api.DSEPoint{}
	for _, p := range resp.Points {
		byID[p.ID] = p
	}
	var env []lpt
	for _, id := range resp.EverOptimal {
		p, ok := byID[id]
		if !ok {
			return nil, nil, fmt.Errorf("ever-optimal %s is not among the points", id)
		}
		env = append(env, lpt{p.EDPJS, p.EmbodiedDelayG})
	}
	if err := checkConvex(env); err != nil {
		return nil, nil, err
	}
	return &resp, env, nil
}

// checkSweep requires every sweep entry to name the benchmark's own tCDP
// argmin over the reply's points.
func checkSweep(resp *api.DSEResponse) error {
	for _, s := range resp.Sweep {
		best, bestV := "", 0.0
		for _, p := range resp.Points {
			if v := tcdp(lpt{p.EDPJS, p.EmbodiedDelayG}, units.CarbonIntensity(resp.CIUse), s.Inferences); best == "" || v < bestV {
				best, bestV = p.ID, v
			}
		}
		if s.OptimalID != best {
			return fmt.Errorf("sweep at N=%g names %s, the tCDP argmin is %s", s.Inferences, s.OptimalID, best)
		}
	}
	return nil
}

// checkDSE121 checks a reply over the paper's 121-configuration space:
// every design is returned, none lies below the ever-optimal envelope, and
// the sweep names the true optimum.
func checkDSE121(o op, body []byte) error {
	resp, env, err := replyEnvelope(body)
	if err != nil {
		return err
	}
	if len(resp.Points) != len(accel.Grid()) {
		return fmt.Errorf("%d points, the space has %d", len(resp.Points), len(accel.Grid()))
	}
	for _, p := range resp.Points {
		if below(env, lpt{p.EDPJS, p.EmbodiedDelayG}) {
			return fmt.Errorf("design %s lies below the ever-optimal envelope", p.ID)
		}
	}
	return checkSweep(resp)
}

// checkKnobReply checks a knob-range reply against the direct path: every
// cell of the (small) grid is priced directly, none may lie below the
// envelope, and every kept point re-prices exactly.
func checkKnobReply(o op, body []byte) error {
	resp, env, err := replyEnvelope(body)
	if err != nil {
		return err
	}
	if resp.PointsStreamed != o.grid.Size() {
		return fmt.Errorf("streamed %d points, the grid has %d", resp.PointsStreamed, o.grid.Size())
	}
	task, err := workload.PaperTask(o.task)
	if err != nil {
		return err
	}
	fab, err := carbon.FabByName(o.fab)
	if err != nil {
		return err
	}
	cs, err := materialize(task, o.grid, fab)
	if err != nil {
		return err
	}
	direct := make([]dse.Point, len(cs.configs))
	for i := range cs.configs {
		if direct[i], err = cs.price(int64(i)); err != nil {
			return err
		}
		if below(env, lagrange(direct[i])) {
			return fmt.Errorf("cell k%d lies below the envelope: it was wrongly pruned", i+1)
		}
	}
	for _, p := range resp.Points {
		i, err := strconv.ParseInt(strings.TrimPrefix(p.ID, "k"), 10, 64)
		if err != nil || i < 1 || i > int64(len(direct)) {
			return fmt.Errorf("kept point %q is not a grid ID", p.ID)
		}
		d := direct[i-1]
		if p.DelayS != d.Delay.Seconds() || p.EnergyJ != d.Energy.Joules() || p.EmbodiedG != d.Embodied.Grams() ||
			p.EDPJS != d.EDP() || p.EmbodiedDelayG != d.EmbodiedDelay() {
			return fmt.Errorf("kept point %s does not re-price exactly", p.ID)
		}
	}
	return checkSweep(resp)
}

// traceServe derives serve-mix's per-layer metrics: per-route round-trip
// medians and spans with the benchmark's request IDs, job timelines from
// the job status timestamps, cache and memo counters from /metrics, and —
// replayed on the benchmark side with the same payloads — JSON decode and
// marshal times and the direct-path kernel pricing behind the 121-config
// requests.
func traceServe(r *run, scripts [][]op, rounds []*roundStats) error {
	routes := map[string][]float64{}
	var queue, runMs, lag, events []float64
	for ri, rs := range rounds {
		root := r.spans.reserve("serve.round", 0, "")
		r.spans.finish(root, rs.start, rs.start.Add(rs.phase))
		n := 0
		for c, outs := range rs.outcomes {
			for k, o := range outs {
				req := fmt.Sprintf("r%d-c%d-%d", ri, c, k)
				for _, ex := range append([]exchange{o.main}, o.extra...) {
					r.spans.add(ex.route, root, req, ex.start, ex.start.Add(ex.dur))
					name := ""
					switch {
					case ex.route == "/v1/dse":
						name = "server.dse.ms"
					case ex.route == "/v1/accounting":
						name = "server.accounting.ms"
					case ex.route == "/v1/jobs":
						name = "server.job_submit.ms"
					case strings.HasSuffix(ex.route, "/result"):
						name = "server.job_result.ms"
					}
					if name != "" && o.err == nil {
						routes[name] = append(routes[name], ex.dur.Seconds()*1e3)
					}
				}
				if scripts[c][k].kind != "job" || o.err != nil {
					continue
				}
				st := o.status
				if st.StartedAt != nil && st.FinishedAt != nil {
					queue = append(queue, st.StartedAt.Sub(st.CreatedAt).Seconds()*1e3)
					runMs = append(runMs, st.FinishedAt.Sub(*st.StartedAt).Seconds()*1e3)
				}
				lag = append(lag, o.waitLag.Seconds()*1e3)
				n += o.events
			}
		}
		events = append(events, float64(n))
	}
	for name, xs := range routes {
		r.set(name, "ms", median(xs))
	}
	r.set("job.queue_wait.ms", "ms", median(queue))
	r.set("job.run.ms", "ms", median(runMs))
	r.set("client.wait_lag.ms", "ms", median(lag))
	r.set("client.events", "count", median(events))
	for k, v := range r.counters {
		r.set(k, "count", float64(v))
	}
	r.set("accel.shape_profile.calls", "count", float64(r.counters["dse.memo.misses"]))

	// Replays over the first round's payloads.
	var decode, marshal time.Duration
	var kcCalls int64
	var kcTime time.Duration
	for c, outs := range rounds[0].outcomes {
		for k, o := range outs {
			sop := scripts[c][k]
			t := time.Now()
			dec := json.NewDecoder(bytes.NewReader(sop.body))
			dec.DisallowUnknownFields()
			var err error
			if sop.kind == "acct" {
				var req api.AccountingRequest
				err = dec.Decode(&req)
			} else {
				var req api.DSERequest
				err = dec.Decode(&req)
			}
			decode += time.Since(t)
			if err != nil {
				return fmt.Errorf("decode %s request: %w", sop.kind, err)
			}
			body := o.main.body
			if sop.kind == "job" {
				if len(o.extra) < 3 {
					continue
				}
				body = o.extra[2].body
			}
			if sop.kind == "acct" {
				var resp api.AccountingResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					return fmt.Errorf("decode accounting reply: %w", err)
				}
				t = time.Now()
				_, err = json.Marshal(resp)
			} else {
				var resp api.DSEResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					return fmt.Errorf("decode dse reply: %w", err)
				}
				t = time.Now()
				_, err = json.Marshal(resp)
			}
			marshal += time.Since(t)
			if err != nil {
				return err
			}
			if sop.kind != "dse121" || sop.orig >= 0 {
				continue
			}
			task, err := workload.PaperTask(sop.task)
			if err != nil {
				return err
			}
			for _, cfg := range accel.Grid() {
				for _, id := range task.Kernels() {
					t = time.Now()
					_, err := cfg.KernelCost(id)
					kcTime += time.Since(t)
					if err != nil {
						return err
					}
					kcCalls++
				}
			}
		}
	}
	r.set("server.decode.us", "us", float64(decode.Nanoseconds())/1e3)
	r.set("server.marshal.us", "us", float64(marshal.Nanoseconds())/1e3)
	r.set("accel.kernel_cost.calls", "count", float64(kcCalls))
	r.set("accel.kernel_cost.us", "us", float64(kcTime.Nanoseconds())/1e3)
	return nil
}
