package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"

	"cordoba/client"
	"cordoba/internal/dse"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// The checkers must pass the program's real outputs and reject each of them
// with one seeded defect planted; a checker that passed both would be
// vacuous.

// testGrid is small enough to price every cell on the direct path.
func testGrid() dse.Grid {
	return dse.Grid{
		MACArrays: []int{4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256},
		SRAMMB:    []float64{1, 2, 4, 8, 16, 32},
		VDDScales: []float64{0.6, 0.7, 0.8, 0.9, 1.0},
		Nodes:     allNodes,
	}
}

func explored(t *testing.T) (*cells, *dse.StreamResult, []lpt, []int64) {
	t.Helper()
	task, err := workload.PaperTask(libTask)
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	s, err := exhaustive(task, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := materialize(task, g, libFab)
	if err != nil {
		t.Fatal(err)
	}
	all, ids, err := sampleCells(cs, 1, len(cs.configs))
	if err != nil {
		t.Fatal(err)
	}
	if s.res.Kept() < 3 {
		t.Fatalf("test grid keeps %d points; the planted faults need an interior vertex", s.res.Kept())
	}
	return cs, s.res, all, ids
}

func TestCheckersPassEngineOutput(t *testing.T) {
	cs, res, all, ids := explored(t)
	env := lagrangeAll(res.Space.Points)
	if err := checkConvex(env); err != nil {
		t.Error(err)
	}
	if err := checkRepriced(cs, res.IDs, res.Space.Points); err != nil {
		t.Error(err)
	}
	if err := checkNotBelow(env, all, ids); err != nil {
		t.Error(err)
	}
	if err := checkOptimalAt(env, libCI, res.OptimalAt); err != nil {
		t.Error(err)
	}
}

func TestPlantedWronglyPrunedPoint(t *testing.T) {
	_, res, all, ids := explored(t)
	for seed := uint64(1); seed <= 5; seed++ {
		env := lagrangeAll(res.Space.Points)
		drop := 1 + newRNG(seed, 50).intn(len(env)-2) // an interior vertex
		env = slices.Delete(env, drop, drop+1)
		if err := checkNotBelow(env, all, ids); err == nil {
			t.Errorf("seed %d: envelope missing vertex %d passed the below-envelope check", seed, drop)
		}
	}
}

func TestPlantedPerturbedEnergy(t *testing.T) {
	cs, res, _, _ := explored(t)
	for seed := uint64(1); seed <= 5; seed++ {
		kept := slices.Clone(res.Space.Points)
		k := newRNG(seed, 51).intn(len(kept))
		kept[k].Energy = units.Energy(math.Nextafter(float64(kept[k].Energy), math.Inf(1)))
		if err := checkRepriced(cs, res.IDs, kept); err == nil {
			t.Errorf("seed %d: kept point %d with energy one ulp off passed the re-pricing check", seed, k)
		}
	}
}

func TestPlantedSurrogateKeepOutsideEvaluated(t *testing.T) {
	task, err := workload.PaperTask(libTask)
	if err != nil {
		t.Fatal(err)
	}
	g := flatGrid(1)
	s, err := surrogate(task, g, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSubset(s.res.IDs, s.res.Evaluated); err != nil {
		t.Fatalf("real search: %v", err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		r := newRNG(seed, 52)
		kept := slices.Clone(s.res.IDs)
		k := r.intn(len(kept))
		for {
			id := int64(r.intn(int(g.Size())))
			if _, found := slices.BinarySearch(s.res.Evaluated, id); !found {
				kept[k] = id
				break
			}
		}
		if err := checkSubset(kept, s.res.Evaluated); err == nil {
			t.Errorf("seed %d: a keep outside Evaluated passed the subset check", seed)
		}
	}
}

func TestPlantedJobResultDiffers(t *testing.T) {
	d, _, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	ops, err := makeScript(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var job op
	for _, o := range ops {
		if o.kind == "job" {
			job = o
		}
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	out := runJob(hc, client.New(d.base, client.WithHTTPClient(hc)), d.base, job)
	if out.err != nil {
		t.Fatal(out.err)
	}
	res, sync := out.extra[1].body, out.extra[2].body
	if err := checkSameBytes("job result", res, sync); err != nil {
		t.Fatalf("real job: %v", err)
	}
	if err := checkKnobReply(job, sync); err != nil {
		t.Fatalf("real reply: %v", err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		bad := perturbReply(t, res, newRNG(seed, 53))
		if err := checkSameBytes("job result", bad, sync); err == nil {
			t.Errorf("seed %d: a job result differing from its sync reply passed", seed)
		}
		if err := checkKnobReply(job, bad); err == nil {
			t.Errorf("seed %d: a knob reply with a perturbed kept point passed", seed)
		}
	}
}

// perturbReply moves one kept point's energy by one ulp.
func perturbReply(t *testing.T, body []byte, r *rng) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	pts := m["points"].([]any)
	p := pts[r.intn(len(pts))].(map[string]any)
	p["energy_j"] = math.Nextafter(p["energy_j"].(float64), math.Inf(1))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchmarkDeclaration holds BENCHMARK.json to the workloads and
// metrics the program reports.
func TestBenchmarkDeclaration(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}
