package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"oooback/internal/core"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/plansearch"
	"oooback/internal/plansvc"
	"oooback/internal/shardsvc"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// Repetitions of the per-layer suites. Each metric is a median over them.
const (
	layerReps       = 100
	pipeReps        = 200
	planTimeQuota   = 3   // time plans per zoo model in the in-process sample
	planParetoQuota = 1   // pareto plans per zoo model in the in-process sample
	planRepeats     = 3   // calls per problem into the pure planner functions
	lookupRounds    = 200 // passes over the hot set for fingerprint and lookup
	probeReqs       = 32  // requests of the route probe
)

// layerSuite fills m with every per-layer metric, timing calls into public
// functions of the engines, the planner and the tier from the benchmark's
// own code. routes holds the median latency of each route the workload's own
// timed loop took; the others are measured by a small route probe. It
// returns the median in-process planning time over the plan-cold mix sample.
func layerSuite(seed uint64, m map[string]metric, routes map[string]time.Duration) (time.Duration, error) {
	if err := trainSuite(seed, m); err != nil {
		return 0, fmt.Errorf("train layers: %w", err)
	}
	if err := pipeSuite(seed, m); err != nil {
		return 0, fmt.Errorf("pipeline layers: %w", err)
	}
	planMix, err := planSuite(seed, m)
	if err != nil {
		return 0, fmt.Errorf("plan layers: %w", err)
	}
	if err := routeSuite(seed, m, routes); err != nil {
		return 0, fmt.Errorf("route probe: %w", err)
	}
	return planMix, nil
}

func msMetric(d time.Duration) metric { return metric{ms(d), "ms"} }

func medianF(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// trainSuite times the parts of a train-ooo step, each network layer in a
// serial conventional walk, and the serial conventional engine at
// GOMAXPROCS 1 and 2. The four measurements alternate step by step, so the
// ratios between them (train.dw_hidden_frac, the speedup over the serial
// engine) do not drift with the host's load.
func trainSuite(seed uint64, m map[string]metric) error {
	net := buildNet(netSeed(seed))
	d := makeData(seed)
	L := len(net.Layers)
	e := train.NewExecutor(train.ExecConcurrent, 0)
	defer e.Close()
	sched := reverseFirstL(L)
	opt := &nn.SGD{LR: learnRate}
	var refs [2]*trainer // serial engine, conventional order, at GOMAXPROCS 1 and 2
	for i := range refs {
		tr, err := newOOOTrainer(seed, train.ExecSerial, graph.Conventional)
		if err != nil {
			return err
		}
		defer tr.close()
		refs[i] = tr
	}
	ws := tensor.NewWorkspace()

	var fwd, loss, bwd, upd []time.Duration
	var refLat [2][]time.Duration
	lf, lo, lw := make([][]time.Duration, L), make([][]time.Duration, L), make([][]time.Duration, L)
	peak := 0
	for s := 0; s < warmupSteps+layerReps; s++ {
		b := s % numBatches
		keep := s >= warmupSteps

		// The parts of Executor.Step, called one by one.
		net.ZeroGrads()
		t0 := time.Now()
		logits := net.Forward(d.x[b])
		t1 := time.Now()
		_, grad := nn.SoftmaxCrossEntropy(logits, d.y[b])
		t2 := time.Now()
		st, err := e.Backward(net, grad, sched)
		if err != nil {
			return err
		}
		t3 := time.Now()
		opt.Step(net.Params())
		t4 := time.Now()
		peak = st.PeakLiveGrads
		if keep {
			fwd, loss, bwd, upd = append(fwd, t1.Sub(t0)), append(loss, t2.Sub(t1)), append(bwd, t3.Sub(t2)), append(upd, t4.Sub(t3))
		}

		// Each layer's forward, δO and δW in a serial conventional walk over
		// the same batch, through the pooled backward paths the engines use.
		net.ZeroGrads()
		x := d.x[b]
		for i, l := range net.Layers {
			t0 := time.Now()
			x = l.Forward(x)
			if keep {
				lf[i] = append(lf[i], time.Since(t0))
			}
		}
		_, g := nn.SoftmaxCrossEntropy(x, d.y[b])
		for i := L - 1; i >= 0; i-- {
			l := net.Layers[i]
			t0 := time.Now()
			gin := inputGrad(l, g, ws)
			t1 := time.Now()
			weightGrad(l, g, ws)
			t2 := time.Now()
			if keep {
				lo[i], lw[i] = append(lo[i], t1.Sub(t0)), append(lw[i], t2.Sub(t1))
			}
			g = gin
		}

		for i, tr := range refs {
			runtime.GOMAXPROCS(i + 1)
			t0 := time.Now()
			_, err := tr.step(warmupSteps + s)
			d := time.Since(t0)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				return err
			}
			if keep {
				refLat[i] = append(refLat[i], d)
			}
		}
	}
	m["train.forward_ms"] = msMetric(median(fwd))
	m["train.loss_ms"] = msMetric(median(loss))
	m["train.backward_ms"] = msMetric(median(bwd))
	m["train.update_ms"] = msMetric(median(upd))
	m["train.peak_live_grads"] = metric{float64(peak), "count"}
	var sumDO, sumDW float64
	for i, l := range net.Layers {
		fw, do, dw := median(lf[i]), median(lo[i]), median(lw[i])
		m["nn."+l.Name()+".fwd_ms"] = msMetric(fw)
		m["nn."+l.Name()+".do_ms"] = msMetric(do)
		if len(l.Params()) > 0 {
			m["nn."+l.Name()+".dw_ms"] = msMetric(dw)
		}
		sumDO += ms(do)
		sumDW += ms(dw)
	}
	m["train.dw_hidden_frac"] = metric{(sumDO + sumDW - m["train.backward_ms"].Value) / sumDW, "ratio"}
	for i := range refs {
		m[fmt.Sprintf("ref.serial_conv_p%d_ms", i+1)] = msMetric(median(refLat[i]))
	}
	return nil
}

func inputGrad(l nn.Layer, g *tensor.Tensor, ws *tensor.Workspace) *tensor.Tensor {
	if wb, ok := l.(nn.WorkspaceBackward); ok {
		return wb.InputGradWS(g, ws)
	}
	return l.InputGrad(g)
}

func weightGrad(l nn.Layer, g *tensor.Tensor, ws *tensor.Workspace) {
	if wb, ok := l.(nn.WorkspaceBackward); ok {
		wb.WeightGradWS(g, ws)
		return
	}
	l.WeightGrad(g)
}

// pipeSuite reads the per-stage timings PipeStepStats reports for the
// train-pipe pipeline, and times the same pipeline with δW fill off, the two
// alternating step by step.
func pipeSuite(seed uint64, m map[string]metric) error {
	fill, err := newPipeTrainer(seed, true)
	if err != nil {
		return err
	}
	defer fill.close()
	nofill, err := newPipeTrainer(seed, false)
	if err != nil {
		return err
	}
	defer nofill.close()
	per := make([][4][]time.Duration, pipeStages)
	var ratio, occ []float64
	var nofillLat []time.Duration
	for s := 0; s < pipeReps; s++ {
		if _, err := fill.step(warmupSteps + s); err != nil {
			return err
		}
		for i, st := range fill.pipeStats.PerStage {
			per[i][0] = append(per[i][0], st.Fwd)
			per[i][1] = append(per[i][1], st.DO)
			per[i][2] = append(per[i][2], st.DWFill)
			per[i][3] = append(per[i][3], st.Idle)
		}
		ratio = append(ratio, fill.pipeStats.FillRatio())
		occ = append(occ, fill.pipeStats.Occupancy())

		t0 := time.Now()
		if _, err := nofill.step(warmupSteps + s); err != nil {
			return err
		}
		nofillLat = append(nofillLat, time.Since(t0))
	}
	for i := range per {
		for j, name := range []string{"fwd_ms", "do_ms", "dw_fill_ms", "idle_ms"} {
			m[fmt.Sprintf("pipe.s%d.%s", i, name)] = msMetric(median(per[i][j]))
		}
	}
	m["pipe.fill_ratio"] = metric{medianF(ratio), "ratio"}
	m["pipe.occupancy"] = metric{medianF(occ), "ratio"}
	m["ref.pipe_nofill_ms"] = msMetric(median(nofillLat))
	return nil
}

// planSample takes, from one seeded plan-cold round, the first
// planTimeQuota time and planParetoQuota pareto requests of every zoo model,
// so the sample's model mix is the same for every seed.
func planSample(seed uint64) []plansvc.PlanRequest {
	type key struct{ model, objective string }
	quota := map[string]int{plansvc.ObjectiveTime: planTimeQuota, plansvc.ObjectivePareto: planParetoQuota}
	taken := map[key]int{}
	var out []plansvc.PlanRequest
	for _, r := range coldRequests(seed) {
		k := key{r.Model, r.Objective}
		if taken[k] < quota[r.Objective] {
			taken[k]++
			out = append(out, r)
		}
	}
	return out
}

// timed returns the median duration of planRepeats calls of f.
func timed(f func()) time.Duration {
	ds := make([]time.Duration, planRepeats)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
	}
	return median(ds)
}

// planSuite plans a sample of the plan-cold mix on a fresh in-process
// service, times the search, simulator, memory replay and sweep functions on
// the same problems, and times fingerprinting and cache lookup over the
// plan-hot set. It returns the median planning time over the sample.
func planSuite(seed uint64, m map[string]metric) (time.Duration, error) {
	svc := plansvc.New(plansvc.Options{Logger: discardLogger()})
	defer svc.Close()
	var mix, timePlans, paretoPlans, enc, search, sim, mem, sweep []time.Duration
	probes := 0
	for _, req := range planSample(seed) {
		t0 := time.Now()
		resp, err := svc.Plan(context.Background(), &req)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		mix = append(mix, d)
		t0 = time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return 0, err
		}
		enc = append(enc, time.Since(t0))

		p, err := newProblem(dpConfig{req.Model, req.Cluster.Preset, req.Method, req.Cluster.GPUs})
		if err != nil {
			return 0, err
		}
		space := plansearch.Space{Model: p.model, Costs: p.costs, Disciplines: []plansearch.Discipline{
			{Name: req.Method, Prio: p.prio, Preemptive: p.preemptive},
		}}
		if req.Objective == plansvc.ObjectivePareto {
			paretoPlans = append(paretoPlans, d)
			sweep = append(sweep, timed(func() { plansearch.ParetoSweep(space, plansearch.Config{}) }))
			continue
		}
		timePlans = append(timePlans, d)
		if resp.SearchStats != nil {
			probes += resp.SearchStats.Probes
		}
		var r plansearch.Result
		search = append(search, timed(func() { r = plansearch.Search(space, plansearch.Guided, plansearch.Config{}) }))
		order := space.Schedule(r.Best)
		var sc core.IterScratch
		sim = append(sim, timed(func() { sc.SimulateIteration(p.costs, order, p.prio, p.preemptive) }))
		mem = append(mem, timed(func() { plansearch.MemFootprint(p.model, order) }))
	}
	m["svc.plan_time_ms"] = msMetric(median(timePlans))
	m["svc.plan_pareto_ms"] = msMetric(median(paretoPlans))
	m["encode_ms"] = msMetric(median(enc))
	m["search.ms"] = msMetric(median(search))
	m["search.probes_per_plan"] = metric{float64(probes) / float64(len(timePlans)), "count"}
	m["sim.iter_us"] = metric{float64(median(sim)) / float64(time.Microsecond), "us"}
	m["mem.footprint_ms"] = msMetric(median(mem))
	m["pareto.sweep_ms"] = msMetric(median(sweep))

	hot := hotRequests(seed)
	for i := range hot {
		if _, err := svc.Plan(context.Background(), &hot[i]); err != nil {
			return 0, err
		}
	}
	var fps, lookups []time.Duration
	for r := 0; r < lookupRounds; r++ {
		for i := range hot {
			t0 := time.Now()
			fp, err := svc.Fingerprint(&hot[i])
			t1 := time.Now()
			if err != nil {
				return 0, err
			}
			if _, ok := svc.CachedBody(fp); !ok {
				return 0, fmt.Errorf("hot plan %s not cached", fp)
			}
			fps, lookups = append(fps, t1.Sub(t0)), append(lookups, time.Since(t1))
		}
	}
	m["svc.fingerprint_ms"] = msMetric(median(fps))
	m["svc.cache_lookup_ms"] = msMetric(median(lookups))
	return median(mix), nil
}

// routeSuite reports the median client latency of each shard route. Routes
// the workload's timed loop took come from that loop; the others from a
// probe tier: cold requests sent alternately to owner (local-owner) and
// non-owner (proxy), then the proxied ones again to the non-owner
// (peer-cache).
func routeSuite(seed uint64, m map[string]metric, routes map[string]time.Duration) error {
	var probe map[string]time.Duration
	for _, r := range []string{shardsvc.RouteLocalOwner, shardsvc.RouteProxy, shardsvc.RoutePeerCache} {
		d, ok := routes[r]
		if !ok {
			if probe == nil {
				var err error
				if probe, err = probeRoutes(seed); err != nil {
					return err
				}
			}
			d = probe[r]
		}
		m["http.route."+r+"_ms"] = msMetric(d)
	}
	return nil
}

func probeRoutes(seed uint64) (map[string]time.Duration, error) {
	tr, err := startTier()
	if err != nil {
		return nil, err
	}
	defer tr.close()
	var reqs []plansvc.PlanRequest
	for _, r := range coldRequests(seed + 1) {
		if r.Objective == plansvc.ObjectiveTime && len(reqs) < probeReqs {
			reqs = append(reqs, r)
		}
	}
	seq, err := prepare(tr.tier.Service(0), reqs)
	if err != nil {
		return nil, err
	}
	ops := tr.plan(seq, shardsvc.RouteLocalOwner, shardsvc.RouteProxy)
	var again []planOp
	for _, op := range ops {
		if op.route == shardsvc.RouteProxy {
			op.route = shardsvc.RoutePeerCache
			again = append(again, op)
		}
	}
	out := map[string]time.Duration{}
	for _, batch := range [][]planOp{ops, again} {
		acct := newAccounting()
		lat, _ := tr.drive(batch, func(i int, r reply) {
			want := plansvc.OutcomeComputed
			if batch[i].route == shardsvc.RoutePeerCache {
				want = plansvc.OutcomeHit
			}
			acct.add(&batch[i], r, want)
		})
		if acct.failed > 0 || acct.wrong > 0 {
			return nil, fmt.Errorf("%d failed and %d misrouted probe requests", acct.failed, acct.wrong)
		}
		for r, d := range routeMedians(batch, lat) {
			out[r] = d
		}
	}
	return out, nil
}
