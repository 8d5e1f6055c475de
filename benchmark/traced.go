package main

import "context"

// runTraced measures the per-layer metrics. Warm and live workloads do the
// whole traced pass in one child. A cold workload needs a fresh process for
// every grid, so the parent runs rounds of three children — traced serial,
// untraced serial, untraced parallel — and derives the cross-process
// metrics itself.
func runTraced(ctx context.Context, w workload, o options) (*result, error) {
	res := &result{Workload: w.name, Traced: true, Metrics: map[string]metricValue{}}
	var layer map[string]float64
	notes, rounds := map[string]string{}, 0
	fold := func(c childRun) {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		res.Problems = append(res.Problems, c.Problems...)
	}
	if w.kind != simCold {
		c, err := spawn(ctx, w, o, phaseTraced, o.budget)
		if err != nil {
			return nil, err
		}
		fold(c)
		layer, notes, rounds = c.Layer, c.Notes, c.Rounds
	} else {
		var layers []map[string]float64
		var tracedWall, serialWall, parWall []float64
		for elapsed := 0.0; len(layers) == 0 || elapsed < o.budget.Seconds(); {
			var walls [3]float64
			for i, phase := range []string{phaseTraced, phaseSerial, phaseParallel} {
				c, err := spawn(ctx, w, o, phase, 0)
				if err != nil {
					return nil, err
				}
				fold(c)
				walls[i] = c.RepWallS[0]
				elapsed += c.wallS
				if phase == phaseTraced {
					layers = append(layers, c.Layer)
				}
			}
			tracedWall = append(tracedWall, walls[0])
			serialWall = append(serialWall, walls[1])
			parWall = append(parWall, walls[2])
			if o.quick {
				break
			}
		}
		layer, rounds = medians(layers), len(layers)
		setGridBaselines(layer, tracedWall, serialWall, parWall)
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Value: layer[d.name], Unit: d.unit, N: rounds, Note: notes[d.name]}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}
