package main

import (
	"sort"

	"cordoba/internal/carbon"
	"cordoba/internal/dse"
	"cordoba/internal/units"
	"cordoba/internal/workload"
)

// The library workloads price the paper's "All kernels" task in a
// coal-heavy fab at the Table III use-phase intensity; the seed draws the
// grid axes.
const (
	libTask = workload.TaskAllKernels
	libCI   = units.CarbonIntensity(380)
)

var libFab = carbon.FabCoal

// rng is splitmix64: every input the benchmark generates comes from it, so
// one seed always gives the same inputs.
type rng struct{ s uint64 }

// newRNG derives an independent stream per use from the run seed.
func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0x9e3779b97f4a7c15)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns k distinct values of [0, n), ascending.
func (r *rng) pick(k, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out
}

// strata returns k ascending values of [0, n), one drawn from each of k
// equal strata, so every seed spreads its axis over the whole pool and
// grids of different seeds cost about the same to explore.
func (r *rng) strata(k, n int) []int {
	out := make([]int, k)
	for i := range out {
		lo, hi := i*n/k, (i+1)*n/k
		out[i] = lo + r.intn(hi-lo)
	}
	return out
}

// Axis value pools the seed draws from.
func macAxis(r *rng, k int) []int {
	var out []int
	for _, i := range r.strata(k, 128) {
		out = append(out, 2*(i+1)) // 2 … 256 MAC arrays
	}
	return out
}

func sramAxis(r *rng, k int) []float64 {
	var out []float64
	for _, i := range r.strata(k, 128) {
		out = append(out, 0.5*float64(i+1)) // 0.5 … 64 MB
	}
	return out
}

func vddAxis(r *rng, k int) []float64 {
	var out []float64
	for _, i := range r.strata(k, 46) {
		out = append(out, float64(55+i)/100) // 0.55 … 1.00 × nominal
	}
	return out
}

func pickNames(r *rng, k int, pool []string) []string {
	var out []string
	for _, i := range r.pick(k, len(pool)) {
		out = append(out, pool[i])
	}
	return out
}

var allNodes = []string{"28nm", "20nm", "14nm", "10nm", "7nm", "5nm", "3nm"}

// flatGrid is the explore-flat and search-surrogate grid: 50 MAC × 30 SRAM
// × 10 V_DD × 7 nodes = 105,000 monolithic cells.
func flatGrid(seed uint64) dse.Grid {
	r := newRNG(seed, 1)
	return dse.Grid{
		MACArrays: macAxis(r, 50),
		SRAMMB:    sramAxis(r, 30),
		VDDScales: vddAxis(r, 10),
		Nodes:     allNodes,
	}
}

// partitionGrid is the explore-partition grid: 30 MAC × 17 SRAM × 6 V_DD ×
// 3 nodes × {monolithic, 2.5d, 3d} × 2 chiplet counts × 2 memory-chiplet
// nodes = 110,160 cells, a third of them monolithic.
func partitionGrid(seed uint64) dse.Grid {
	r := newRNG(seed, 2)
	g := dse.Grid{
		MACArrays:    macAxis(r, 30),
		SRAMMB:       sramAxis(r, 17),
		VDDScales:    vddAxis(r, 6),
		Nodes:        pickNames(r, 3, []string{"14nm", "10nm", "7nm", "5nm", "3nm"}),
		Integrations: []string{"monolithic", "2.5d", "3d"},
	}
	for _, i := range r.pick(2, 5) {
		g.Chiplets = append(g.Chiplets, []int{2, 3, 4, 6, 8}[i])
	}
	g.ChipletNodes = pickNames(r, 2, []string{"10nm", "14nm", "20nm", "28nm"})
	g.Carrier = []string{"rdl-fanout", "silicon-interposer", "emib"}[r.intn(3)]
	return g
}
