// Package manet is the mobile ad hoc network simulator behind the paper's
// application-impact experiment (§6.2): 200 nodes with 1 km radios moving
// through a 100 km × 100 km arena under a fitted Levy-walk model, 100 CBR
// node pairs, AODV routing. It substitutes for the ns-2 AODV setup the
// paper drives with its fitted mobility models, reporting the same three
// metrics: route change frequency, route availability ratio and routing
// overhead (route packets per data packet).
package manet

import (
	"fmt"
	"math"

	"geosocial/internal/levy"
	"geosocial/internal/rng"
)

// Mobility supplies node positions over time (planar kilometers).
type Mobility interface {
	// Position returns node n's coordinates at time t seconds.
	Position(n int, t float64) (x, y float64)
	// Nodes returns the node count.
	Nodes() int
}

// WaypointMobility adapts per-node Levy waypoint schedules to the
// Mobility interface.
type WaypointMobility struct {
	Schedules [][]levy.Waypoint
}

// Position implements Mobility.
func (w *WaypointMobility) Position(n int, t float64) (float64, float64) {
	return levy.PositionAt(w.Schedules[n], t)
}

// Nodes implements Mobility.
func (w *WaypointMobility) Nodes() int { return len(w.Schedules) }

// SimulateModel moves cfg.Nodes nodes under a fitted mobility model and
// runs the simulation over them. Both random streams derive from seed
// and the model's name, so each model's run is reproducible on its own.
func SimulateModel(m *levy.Model, gen levy.GenOptions, cfg Config, seed uint64) (*Metrics, error) {
	root := rng.New(seed).Split("manet-" + m.Name)
	wps, err := m.Generate(cfg.Nodes, gen, root.Split("mobility"))
	if err != nil {
		return nil, fmt.Errorf("manet: generate mobility for %q: %w", m.Name, err)
	}
	sm, err := NewSimulator(cfg, &WaypointMobility{Schedules: wps}, root.Split("sim"))
	if err != nil {
		return nil, fmt.Errorf("manet: simulator for %q: %w", m.Name, err)
	}
	metrics, err := sm.Run()
	if err != nil {
		return nil, fmt.Errorf("manet: run for %q: %w", m.Name, err)
	}
	return metrics, nil
}

// StaticMobility pins nodes to fixed positions; used by protocol tests.
type StaticMobility struct {
	X, Y []float64
}

// Position implements Mobility.
func (s *StaticMobility) Position(n int, _ float64) (float64, float64) {
	return s.X[n], s.Y[n]
}

// Nodes implements Mobility.
func (s *StaticMobility) Nodes() int { return len(s.X) }

// NewLine returns len nodes spaced step km apart on the x axis — a
// classic multi-hop chain topology for protocol tests.
func NewLine(n int, step float64) *StaticMobility {
	m := &StaticMobility{X: make([]float64, n), Y: make([]float64, n)}
	for i := range m.X {
		m.X[i] = float64(i) * step
	}
	return m
}

// neighborTable maintains the connectivity snapshot, rebuilt every update
// interval with uniform-grid binning so the 200-node arena refresh stays
// O(n · neighbors).
type neighborTable struct {
	rangeKm float64
	cell    float64
	n       int
	adj     [][]int // adjacency lists, rebuilt in place
	xs, ys  []float64
	bins    map[[2]int32][]int32
}

func newNeighborTable(n int, rangeKm float64) *neighborTable {
	return &neighborTable{
		rangeKm: rangeKm,
		cell:    rangeKm,
		n:       n,
		adj:     make([][]int, n),
		xs:      make([]float64, n),
		ys:      make([]float64, n),
		bins:    make(map[[2]int32][]int32, n),
	}
}

// update rebuilds the adjacency snapshot for time t.
func (nt *neighborTable) update(m Mobility, t float64) {
	for k := range nt.bins {
		delete(nt.bins, k)
	}
	for i := 0; i < nt.n; i++ {
		x, y := m.Position(i, t)
		nt.xs[i], nt.ys[i] = x, y
		key := [2]int32{int32(math.Floor(x / nt.cell)), int32(math.Floor(y / nt.cell))}
		nt.bins[key] = append(nt.bins[key], int32(i))
	}
	r2 := nt.rangeKm * nt.rangeKm
	for i := 0; i < nt.n; i++ {
		nt.adj[i] = nt.adj[i][:0]
		cx := int32(math.Floor(nt.xs[i] / nt.cell))
		cy := int32(math.Floor(nt.ys[i] / nt.cell))
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				for _, j := range nt.bins[[2]int32{cx + dx, cy + dy}] {
					if int(j) == i {
						continue
					}
					ddx := nt.xs[i] - nt.xs[j]
					ddy := nt.ys[i] - nt.ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						nt.adj[i] = append(nt.adj[i], int(j))
					}
				}
			}
		}
	}
}

// neighbors returns the current neighbor list of node i (valid until the
// next update).
func (nt *neighborTable) neighbors(i int) []int { return nt.adj[i] }

// connected reports whether i and j are currently within radio range.
func (nt *neighborTable) connected(i, j int) bool {
	dx := nt.xs[i] - nt.xs[j]
	dy := nt.ys[i] - nt.ys[j]
	return dx*dx+dy*dy <= nt.rangeKm*nt.rangeKm
}

// pathExists reports whether a multi-hop path connects src and dst in the
// current snapshot (BFS) — the ground-truth route availability check.
func (nt *neighborTable) pathExists(src, dst int) bool {
	if src == dst {
		return true
	}
	visited := make([]bool, nt.n)
	queue := []int{src}
	visited[src] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range nt.adj[cur] {
			if nb == dst {
				return true
			}
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return false
}

func (nt *neighborTable) String() string {
	deg := 0
	for _, a := range nt.adj {
		deg += len(a)
	}
	return fmt.Sprintf("neighborTable{n=%d avgDeg=%.2f}", nt.n, float64(deg)/float64(maxInt(nt.n, 1)))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
