package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// Span names of the traced run, one per layer boundary. Every request's
// root span is "request"; its self time is what the layers below do not
// cover (the harness's own bookkeeping and scheduling gaps).
var spanNames = []string{
	"request",
	"experiments.plan",
	"resultcache.get",
	"diskstore.get",
	"fleet.dispatch",
	"engine.sim",
	"engine.analytic",
	"engine.table1",
	"report.encode",
	"resultcache.put",
	"diskstore.put",
	"experiments.merge",
}

// pipeline executes campaigns in process through the layers affinityd
// uses, in the order it uses them, wrapping each call in a span.
type pipeline struct {
	tr      *tracer
	bodies  *resultcache.Cache
	cells   *resultcache.Cache
	store   *diskstore.Store
	coord   *fleet.Coordinator
	stats   *obs.CampaignStats
	cellPar int // params.workers, as the daemon stamps it
}

// run serves one request: the body tiers, then (on a miss) the cell
// plan with per-cell tiers, dispatch or execution and Put, then merge,
// encode and the body Put. It returns the canonical body.
func (p *pipeline) run(ctx context.Context, req int, r request) ([]byte, error) {
	root := p.tr.begin(req, -1, "request")
	defer p.tr.end(root)
	var (
		key  string
		body []byte
		hit  bool
		np   experiments.CampaignParams
		err  error
	)
	p.tr.call(req, root, "experiments.plan", func() {
		camp, ok := experiments.CampaignByKind(r.Kind)
		if !ok {
			err = fmt.Errorf("unknown kind %q", r.Kind)
			return
		}
		if np, err = camp.Normalize(r.Params); err != nil {
			return
		}
		var canon []byte
		if canon, err = report.CanonicalJSON(np); err == nil {
			key = resultcache.Key(r.Kind, canon, version.Engine)
		}
	})
	if err != nil {
		return nil, err
	}
	if body, hit = p.get(req, root, p.bodies, key); hit {
		return body, nil
	}
	np.Workers = p.cellPar
	var plan *experiments.CellPlan
	p.tr.call(req, root, "experiments.plan", func() { plan, err = experiments.Cells(r.Kind, np) })
	if err != nil {
		return nil, err
	}
	var budget *fleet.Budget
	if p.coord != nil {
		budget = fleet.NewBudget(16) // affinityd's -hedge-budget default
	}
	start := time.Now()
	partials := make([][]byte, len(plan.Cells))
	for i := range plan.Cells {
		cell := &plan.Cells[i]
		ckey := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)
		if b, ok := p.get(req, root, p.cells, ckey); ok {
			partials[i] = b
			continue
		}
		b, cost, err := p.execute(ctx, req, root, plan, i, ckey, budget)
		if err != nil {
			return nil, err
		}
		p.put(req, root, p.cells, ckey, b, cost)
		partials[i] = b
	}
	var res any
	p.tr.call(req, root, "experiments.merge", func() { res, err = plan.Merge(ctx, partials) })
	if err != nil {
		return nil, err
	}
	p.tr.call(req, root, "report.encode", func() { body, err = report.CanonicalJSON(res) })
	if err != nil {
		return nil, err
	}
	p.put(req, root, p.bodies, key, body, uint64(time.Since(start)))
	return body, nil
}

// get looks key up in the memory tier, then the disk tier, promoting a
// disk hit into memory with its cost.
func (p *pipeline) get(req, root int, c *resultcache.Cache, key string) ([]byte, bool) {
	var (
		b    []byte
		cost uint64
		ok   bool
	)
	p.tr.call(req, root, "resultcache.get", func() { b, _, ok = c.GetCost(key) })
	if ok || p.store == nil {
		return b, ok
	}
	p.tr.call(req, root, "diskstore.get", func() { b, cost, ok = p.store.Get(key) })
	if ok {
		p.tr.call(req, root, "resultcache.put", func() { c.PutCost(key, b, cost) })
	}
	return b, ok
}

// put writes a result through both tiers.
func (p *pipeline) put(req, root int, c *resultcache.Cache, key string, b []byte, cost uint64) {
	p.tr.call(req, root, "resultcache.put", func() { c.PutCost(key, b, cost) })
	if p.store != nil {
		p.tr.call(req, root, "diskstore.put", func() { p.store.Put(key, b, cost) })
	}
}

// execute produces cell i: by fleet dispatch when a coordinator is
// configured, with peer fill and then local execution as fallbacks.
func (p *pipeline) execute(ctx context.Context, req, root int, plan *experiments.CellPlan, i int, key string, budget *fleet.Budget) ([]byte, uint64, error) {
	cell := &plan.Cells[i]
	start := time.Now()
	if p.coord != nil {
		var (
			resp *fleet.ExecuteResponse
			err  error
		)
		p.tr.call(req, root, "fleet.dispatch", func() {
			resp, err = p.coord.DispatchBudget(ctx, fleet.ExecuteRequest{
				Kind: plan.Kind, Params: plan.Params, Index: i, CellID: cell.ID, Key: key,
				RequestID: fmt.Sprintf("t%08d", req),
			}, budget)
		})
		if err == nil {
			return resp.Body, resp.ExecNs, nil
		}
		if b, cost, _, ok := p.coord.PeerFill(ctx, key); ok {
			return b, cost, nil
		}
	}
	tier := "engine.sim"
	switch {
	case cell.KeyKind == "cell/table1":
		tier = "engine.table1"
	case cell.Engine == experiments.EngineAnalytic:
		tier = "engine.analytic"
	}
	var (
		res any
		b   []byte
		err error
	)
	p.tr.call(req, root, tier, func() { res, err = cell.Run(obs.WithCollector(ctx, p.stats)) })
	if err != nil {
		return nil, 0, err
	}
	p.tr.call(req, root, "report.encode", func() { b, err = report.CanonicalJSON(res) })
	if err != nil {
		return nil, 0, fmt.Errorf("encode cell %s: %w", cell.ID, err)
	}
	return b, uint64(time.Since(start)), nil
}

// replay runs reqs through the pipeline with `clients` concurrent
// callers, each taking the next request in sequence order.
func (p *pipeline) replay(ctx context.Context, reqs []request) error {
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				if _, err := p.run(ctx, i, reqs[i]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("traced request %d %s: %w", i, reqs[i].body(), err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// inProcessFleet is a coordinator and two workers served from this
// process on loopback, with the deployed daemons' token and capacities.
type inProcessFleet struct {
	coord   *fleet.Coordinator
	workers []*fleet.Worker
	servers []*http.Server
	stores  []*diskstore.Store
}

func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

func openStore(dir string) (*diskstore.Store, error) {
	return diskstore.Open(dir, diskstore.Options{EngineVersion: version.Engine})
}

// startFleet builds the in-process fleet around the coordinator's cell
// cache and store.
func startFleet(dir string, cache *resultcache.Cache, store *diskstore.Store, cacheBytes int64) (*inProcessFleet, error) {
	f := &inProcessFleet{coord: fleet.NewCoordinator(fleet.Config{Cache: cache, Store: store, Token: fleetToken})}
	mux := http.NewServeMux()
	f.coord.RegisterHandlers(mux)
	srv, url, err := serveLoopback(mux)
	if err != nil {
		return nil, err
	}
	f.servers = append(f.servers, srv)
	for i := 1; i <= 2; i++ {
		ws, err := openStore(filepath.Join(dir, fmt.Sprintf("store-worker%d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		f.stores = append(f.stores, ws)
		w := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: url, Token: fleetToken, Capacity: workerParallelism,
			Cache: resultcache.New(cacheBytes), Store: ws,
		})
		wmux := http.NewServeMux()
		w.RegisterHandlers(wmux)
		wsrv, wurl, err := serveLoopback(wmux)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, wsrv)
		w.Start(wurl)
		f.workers = append(f.workers, w)
	}
	if n := f.coord.LiveWorkers(); n != 2 {
		f.close()
		return nil, fmt.Errorf("in-process fleet: %d of 2 workers registered", n)
	}
	return f, nil
}

func (f *inProcessFleet) close() {
	for _, w := range f.workers {
		w.Stop()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
}
