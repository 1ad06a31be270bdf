package experiments

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/report"
)

// futureSimMachine scales the base machine to one speed*cache product
// point of the Figure 8-13 axis: processor speed grows by √product and
// the cache by the nearest integer multiple of √product (floor 1).
func futureSimMachine(base machine.Config, product float64) (machine.Config, error) {
	if product < 1 {
		return machine.Config{}, fmt.Errorf("experiments: product %v below 1", product)
	}
	factor := math.Sqrt(product)
	cacheScale := int(factor + 0.5)
	if cacheScale < 1 {
		cacheScale = 1
	}
	return base.Scaled(factor, cacheScale)
}

// FutureSimTable renders a futuresim campaign's points against the
// analytic model's predictions for the same products.
func FutureSimTable(points []FutureSimCampaignPoint, modelRel map[string][]float64, policies []string) report.Table {
	t := report.Table{
		Title:   "Future machines: simulated relative RT vs analytic model",
		Headers: []string{"product"},
	}
	for _, p := range policies {
		t.Headers = append(t.Headers, p+" (sim)", p+" (model)")
	}
	for i, pt := range points {
		row := []string{report.F(pt.Product, 0)}
		for _, p := range policies {
			row = append(row, report.F(pt.SimRel[p], 3))
			if ys, ok := modelRel[p]; ok && i < len(ys) {
				row = append(row, report.F(ys[i], 3))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}
