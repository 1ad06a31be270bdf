package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

// RunTable1 runs the table1 campaign under opts and converts its result
// into the measure.Table1 that Table1Report and the future model read.
// With opts.Stats set, the campaign's counters fold into it. Table 1 is
// always measured, so opts.Engine does not apply, as in the future plan's
// table1 cells: a caller running the future pipeline under an analytic
// engine gets its compare half from that engine and this table measured.
func RunTable1(ctx context.Context, opts Options) (measure.Table1, error) {
	p := opts.Params()
	p.Engine = ""
	res, err := runCampaign(ctx, "table1", opts, p)
	if err != nil {
		return measure.Table1{}, err
	}
	return Table1From(res.(Table1CampaignResult))
}

// Table1From converts a table1 campaign's wire result into a
// measure.Table1 with the PNA and PA of every cell; the per-regime runs
// behind them are not on the wire (measure.MeasureCell re-derives them).
// The conversion is exact: the wire carries a penalty of d ns as the
// float64 d/1000 µs, and round(µs×1000) recovers d for every d below
// 2^45 ns, as the relative error of the two roundings stays under 2^-52.
func Table1From(res Table1CampaignResult) (measure.Table1, error) {
	t1 := measure.Table1{
		Apps:  res.Apps,
		Cells: make(map[simtime.Duration]map[string]measure.Penalties, len(res.QsMs)),
	}
	for _, ms := range res.QsMs {
		cells, ok := res.Cells[table1QKey(ms)]
		if !ok {
			return measure.Table1{}, fmt.Errorf("experiments: table1 result has no cells for Q = %gms", ms)
		}
		q := simtime.Duration(math.Round(ms * float64(simtime.Millisecond)))
		t1.Qs = append(t1.Qs, q)
		t1.Cells[q] = make(map[string]measure.Penalties, len(cells))
		for app, cell := range cells {
			pen := measure.Penalties{
				Measured: app,
				Q:        q,
				PNA:      fromMicros(cell.PNAMicros),
				PA:       make(map[string]simtime.Duration, len(cell.PAMicros)),
			}
			for iv, us := range cell.PAMicros {
				pen.PA[iv] = fromMicros(us)
			}
			t1.Cells[q][app] = pen
		}
	}
	return t1, nil
}

// table1QKey formats a Q as the table1 result's Cells key.
func table1QKey(ms float64) string { return fmt.Sprintf("%g", ms) }

func fromMicros(us float64) simtime.Duration {
	return simtime.Duration(math.Round(us * float64(simtime.Microsecond)))
}

// table1CellStats derives one (Q, measured application) cell's SimStats
// from the Section-4 measurement protocol. The protocol has no event
// queue, so the dispatch counters map onto its regimes instead: every
// migrating-regime switch is a migration charging P^NA (with a cache
// flush, as the paper streams through memory), and every
// multiprogrammed-regime switch charges P^A; the penalty time is the
// regime's whole response-time delta over the stationary baseline. All
// fields are integer, so a campaign's totals do not depend on how its
// cells are grouped.
func table1CellStats(mc machine.Config, pen measure.Penalties, apps []string, budget simtime.Duration) obs.SimStats {
	var s obs.SimStats
	addRun := func(r measure.RunResult) {
		s.Runs++
		s.WorkNs += int64(budget)
		s.SwitchNs += int64(r.Switches) * int64(mc.SwitchPath)
		s.MissNs += int64(r.Misses) * int64(mc.LineFill)
	}
	delta := func(r, base measure.RunResult) int64 {
		if d := int64(r.ResponseTime - base.ResponseTime); d > 0 {
			return d
		}
		return 0
	}
	addRun(pen.Stationary)
	addRun(pen.Migrating)
	s.Reallocations += uint64(pen.Migrating.Switches)
	s.Migrations += uint64(pen.Migrating.Switches)
	s.PNACharges += uint64(pen.Migrating.Switches)
	s.Flushes += uint64(pen.Migrating.Switches)
	s.PenaltyNs += delta(pen.Migrating, pen.Stationary)
	for _, iv := range apps {
		multi := pen.Multi[iv]
		addRun(multi)
		s.Reallocations += uint64(multi.Switches)
		s.PACharges += uint64(multi.Switches)
		s.PenaltyNs += delta(multi, pen.Stationary)
	}
	return s
}

// Table1Report renders the measured penalties in the paper's Table-1
// layout: one block per Q; rows are measured applications; the first column
// is P^NA and the rest are P^A against each intervening application.
func Table1Report(t1 measure.Table1) []report.Table {
	var out []report.Table
	qs := append([]simtime.Duration(nil), t1.Qs...)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for _, q := range qs {
		t := report.Table{
			Title:   "Table 1 — P^NA and P^A (µs per switch), Q = " + q.String(),
			Headers: []string{"measured", "P^NA"},
		}
		for _, iv := range t1.Apps {
			t.Headers = append(t.Headers, "P^A/"+iv)
		}
		for _, app := range t1.Apps {
			pen := t1.Cells[q][app]
			row := []string{app, report.F(pen.PNA.Micros(), 0)}
			for _, iv := range t1.Apps {
				row = append(row, report.F(pen.PA[iv].Micros(), 0))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// PenaltyFor returns (P^A, P^NA) in seconds for the given measured
// application, averaged over the given intervening applications, at the
// tabulated Q nearest to interval. It is the parameter-extraction step of
// Section 7.3: the scheduling experiments report each job's observed
// reallocation interval, and the penalties measured at the closest Q apply.
func PenaltyFor(t1 measure.Table1, app string, intervening []string, interval simtime.Duration) (pa, pna float64) {
	if len(t1.Qs) == 0 {
		return 0, 0
	}
	best := t1.Qs[0]
	for _, q := range t1.Qs[1:] {
		if absDur(q-interval) < absDur(best-interval) {
			best = q
		}
	}
	pen, ok := t1.Cells[best][app]
	if !ok {
		return 0, 0
	}
	pna = pen.PNA.SecondsF()
	if len(intervening) == 0 {
		intervening = t1.Apps
	}
	n := 0
	for _, iv := range intervening {
		if v, ok := pen.PA[iv]; ok {
			pa += v.SecondsF()
			n++
		}
	}
	if n > 0 {
		pa /= float64(n)
	}
	return pa, pna
}

func absDur(d simtime.Duration) simtime.Duration {
	if d < 0 {
		return -d
	}
	return d
}
