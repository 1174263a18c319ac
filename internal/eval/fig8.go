package eval

import (
	"fmt"
	"math"

	"geosocial/internal/levy"
	"geosocial/internal/manet"
	"geosocial/internal/stats"
)

// MANETScale shrinks the Figure 8 experiment for fast runs: 1.0 is the
// paper's full setup (200 nodes, 100 flows, 3600 s).
type MANETScale struct {
	Nodes    int
	Flows    int
	Duration float64
}

// FullMANET is the paper's §6.2 configuration.
func FullMANET() MANETScale { return MANETScale{Nodes: 200, Flows: 100, Duration: 3600} }

// QuickMANET is a reduced configuration for tests and examples.
func QuickMANET() MANETScale { return MANETScale{Nodes: 60, Flows: 25, Duration: 600} }

// MANETResult bundles one model's simulation outcome.
type MANETResult struct {
	Model   string
	Metrics *manet.Metrics
}

// RunMANET fits the three mobility models, generates synthetic movement
// for each, and runs the AODV simulation three times (§6.2).
func RunMANET(ctx *Context, scale MANETScale, seed uint64) ([]MANETResult, error) {
	models, err := FitModels(ctx.PrimaryOuts)
	if err != nil {
		return nil, err
	}
	var out []MANETResult
	for _, m := range []*levy.Model{models.GPS, models.Honest, models.All} {
		gen := levy.DefaultGenOptions()
		gen.Duration = scale.Duration
		// Spawn density targets ~5 initial neighbors per node regardless
		// of the node-count scale (the paper's 200-node cluster): dense
		// enough for a giant component, sparse enough that the GPS
		// model's dispersal visibly degrades connectivity over the run.
		gen.SpawnKm = math.Sqrt(float64(scale.Nodes) * math.Pi / 5.0)
		cfg := manet.DefaultConfig()
		cfg.Nodes = scale.Nodes
		cfg.Flows = scale.Flows
		cfg.Duration = scale.Duration
		metrics, err := manet.SimulateModel(m, gen, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		out = append(out, MANETResult{Model: m.Name, Metrics: metrics})
	}
	return out, nil
}

// Fig8 regenerates Figure 8: the MANET application metrics under the
// three fitted mobility models — (a) route change frequency, (b) route
// availability ratio, (c) routing overhead.
func Fig8(ctx *Context, scale MANETScale, seed uint64) (*Report, error) {
	results, err := RunMANET(ctx, scale, seed)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig8", Title: fmt.Sprintf("MANET performance (%d nodes, %d flows, %.0fs)", scale.Nodes, scale.Flows, scale.Duration)}

	xa := stats.LinSpace(0, 0.8, 17)
	figA := Figure{Title: "Figure 8(a): route change frequency", XLabel: "changes/min", YLabel: "CDF %", X: xa}
	xb := stats.LinSpace(0, 1, 21)
	figB := Figure{Title: "Figure 8(b): route availability ratio", XLabel: "ratio", YLabel: "CDF %", X: xb}
	xc := stats.LinSpace(0, 50, 26)
	figC := Figure{Title: "Figure 8(c): routing overhead", XLabel: "route pkts per data pkt", YLabel: "CDF %", X: xc}

	// Summary statistics per model: [mean changes/min, mean availability,
	// median overhead]. The overhead comparison uses the median because
	// Figure 8(c)'s axis spans 0–50 route packets per data packet — the
	// visible mass — while the mean is dominated by permanently
	// partitioned flows whose per-delivered ratio diverges.
	summ := map[string][3]float64{}
	for _, res := range results {
		m := res.Metrics
		figA.Series = append(figA.Series, Series{Name: res.Model, Y: stats.NewCDF(m.RouteChangesPerMin).Points(xa)})
		figB.Series = append(figB.Series, Series{Name: res.Model, Y: stats.NewCDF(m.Availability).Points(xb)})
		figC.Series = append(figC.Series, Series{Name: res.Model, Y: stats.NewCDF(m.Overhead).Points(xc)})
		summ[res.Model] = [3]float64{
			stats.Mean(m.RouteChangesPerMin),
			stats.Mean(m.Availability),
			stats.Quantile(m.Overhead, 0.5),
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %v", res.Model, m))
	}
	r.Figures = append(r.Figures, figA, figB, figC)

	gps, honest, all := summ["gps"], summ["honest-checkin"], summ["all-checkin"]
	r.Notes = append(r.Notes,
		fmt.Sprintf("mean route changes/min: gps=%.3f honest=%.3f all=%.3f (paper: honest lowest)", gps[0], honest[0], all[0]),
		fmt.Sprintf("mean availability: gps=%.3f honest=%.3f all=%.3f (paper: honest ~2x GPS)", gps[1], honest[1], all[1]),
		fmt.Sprintf("median overhead: gps=%.3f honest=%.3f all=%.3f (paper: GPS highest, honest lowest)", gps[2], honest[2], all[2]),
	)
	if honest[1] <= gps[1] {
		r.Notes = append(r.Notes, "WARNING: honest-checkin availability not above GPS (paper shape violated)")
	}
	if honest[2] >= gps[2] {
		r.Notes = append(r.Notes, "WARNING: honest-checkin median overhead not below GPS (paper shape violated)")
	}
	if honest[0] >= gps[0] {
		r.Notes = append(r.Notes, "WARNING: honest-checkin route changes not below GPS (paper shape violated)")
	}
	return r, nil
}
