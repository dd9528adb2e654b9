package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oooback/internal/core"
	"oooback/internal/datapar"
	"oooback/internal/graph"
	"oooback/internal/models"
	"oooback/internal/plansvc"
	"oooback/internal/shardsvc"
)

// The plan workloads drive an in-process 2-shard tier over loopback HTTP with
// closed-loop clients.
const (
	tierShards  = 2
	planClients = 2
	// planSetups is how many times a run sets up; setup_s is their median.
	planSetups = 21
	// Timed requests per requested second, sized so a run lasts about
	// --seconds on a 2-core host.
	hotRate  = 10000
	coldRate = 240
	// coldRound is the number of distinct requests in one plan-cold round.
	coldRound = 312
)

var (
	presetOrder = []string{"priv-a", "priv-b", "pub-a"}
	// presetGPUs lists the GPU counts the plan requests of each preset use.
	presetGPUs = map[string][]int{
		"priv-a": {8, 4, 2, 6, 3, 5, 7, 1},
		"priv-b": {16, 8, 4, 20, 12, 2, 10, 6},
		"pub-a":  {32, 16, 48, 8, 24, 4, 40, 12},
	}
	presetCluster = map[string]datapar.Cluster{
		"priv-a": datapar.PrivA(),
		"priv-b": datapar.PrivB(),
		"pub-a":  datapar.PubA(),
	}
	methodNames = []string{"wfbp", "horovod", "p3", "byteps", "ooo-byteps", "ooo-horovod"}
	methodOf    = map[string]datapar.Method{
		"wfbp": datapar.WFBP, "horovod": datapar.Horovod, "p3": datapar.P3,
		"byteps": datapar.BytePS, "ooo-byteps": datapar.OOOBytePS, "ooo-horovod": datapar.OOOHorovod,
	}
)

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// coldRequests is one plan-cold round: every zoo model × preset × method
// with objective=time, plus objective=pareto for two methods per (model,
// preset) drawn from the seed — 312 distinct fingerprints, 3 in 4 of them
// time plans, in an order shuffled by the seed. The GPU counts rotate
// through each preset's list across models and methods, so a round plans
// the same problems for every seed.
func coldRequests(seed uint64) []plansvc.PlanRequest {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []plansvc.PlanRequest
	for mo, model := range models.ZooNames() {
		for pi, preset := range presetOrder {
			pareto := rng.Perm(len(methodNames))[:2]
			gpus := presetGPUs[preset]
			for mi, method := range methodNames {
				req := plansvc.PlanRequest{
					Model:     model,
					Cluster:   plansvc.ClusterSpec{Preset: preset, GPUs: gpus[(mo*len(methodNames)+mi+pi)%len(gpus)]},
					Method:    method,
					Objective: plansvc.ObjectiveTime,
				}
				out = append(out, req)
				if mi == pareto[0] || mi == pareto[1] {
					req.Objective = plansvc.ObjectivePareto
					out = append(out, req)
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hotRequests is the plan-hot set: one time plan per zoo model, with preset,
// GPU count and method drawn from the seed.
func hotRequests(seed uint64) []plansvc.PlanRequest {
	rng := rand.New(rand.NewSource(int64(seed) + 7919))
	var out []plansvc.PlanRequest
	for _, model := range models.ZooNames() {
		preset := presetOrder[rng.Intn(len(presetOrder))]
		gpus := presetGPUs[preset]
		out = append(out, plansvc.PlanRequest{
			Model:     model,
			Cluster:   plansvc.ClusterSpec{Preset: preset, GPUs: gpus[rng.Intn(len(gpus))]},
			Method:    methodNames[rng.Intn(len(methodNames))],
			Objective: plansvc.ObjectiveTime,
		})
	}
	return out
}

// planReq is one distinct plan request with its encoded body and
// fingerprint.
type planReq struct {
	plansvc.PlanRequest
	body []byte
	fp   string
}

// planOp is one HTTP request of a run's request plan.
type planOp struct {
	*planReq
	target int    // shard index the request is sent to
	route  string // the X-Shard-Route the request plan implies
}

// prepare encodes requests and fingerprints them with Service.Fingerprint.
func prepare(svc *plansvc.Service, reqs []plansvc.PlanRequest) ([]*planReq, error) {
	out := make([]*planReq, len(reqs))
	for i := range reqs {
		r := &planReq{PlanRequest: reqs[i]}
		var err error
		if r.fp, err = svc.Fingerprint(&r.PlanRequest); err != nil {
			return nil, fmt.Errorf("fingerprint %+v: %w", r.PlanRequest, err)
		}
		if r.body, err = json.Marshal(&r.PlanRequest); err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// tierRun is one set-up tier with its client.
type tierRun struct {
	tier   *shardsvc.Tier
	urls   []string
	ring   *shardsvc.Ring
	client *http.Client
}

func startTier() (*tierRun, error) {
	t, err := shardsvc.StartTier(shardsvc.TierOptions{Shards: tierShards, Logger: discardLogger()})
	if err != nil {
		return nil, err
	}
	urls := t.URLs()
	ring, err := shardsvc.NewRing(urls, 0)
	if err != nil {
		t.Close()
		return nil, err
	}
	return &tierRun{
		tier: t, urls: urls, ring: ring,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: planClients}},
	}, nil
}

func (tr *tierRun) close() {
	tr.client.CloseIdleConnections()
	tr.tier.Close()
}

// owner returns the shard index owning fp, from the ring over the tier's URLs.
func (tr *tierRun) owner(fp string) int {
	o := tr.ring.Owner(fp)
	for i, u := range tr.urls {
		if u == o {
			return i
		}
	}
	panic("perfbench: ring owner " + o + " is not a tier URL")
}

// plan turns a request sequence into a request plan: position j goes to the
// owner of its fingerprint when j is even and to the other shard when j is
// odd, so exactly half of the requests take one shard hop whatever ports the
// tier bound. ownerRoute and otherRoute are the routes those requests must
// take.
func (tr *tierRun) plan(seq []*planReq, ownerRoute, otherRoute string) []planOp {
	ops := make([]planOp, len(seq))
	for j, r := range seq {
		own := tr.owner(r.fp)
		ops[j] = planOp{planReq: r, target: own, route: ownerRoute}
		if j%2 == 1 {
			ops[j].target, ops[j].route = (own+1)%tierShards, otherRoute
		}
	}
	return ops
}

// reply is what a client saw for one request.
type reply struct {
	status  int
	route   string
	outcome string
	body    []byte
	err     error
}

// do sends one plan request and reads the whole response.
func (tr *tierRun) do(op *planOp) reply {
	resp, err := tr.client.Post(tr.urls[op.target]+"/v1/plan", "application/json", bytes.NewReader(op.body))
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{
		status:  resp.StatusCode,
		route:   resp.Header.Get(shardsvc.HeaderRoute),
		outcome: resp.Header.Get(plansvc.HeaderOutcome),
		body:    body,
		err:     err,
	}
}

// drive runs the request plan with planClients closed-loop clients, each
// taking the next unsent position, and hands every reply to record from the
// client's goroutine (positions are distinct, so per-position writes need no
// lock). It returns each request's latency in send order and the wall time
// of the whole plan.
func (tr *tierRun) drive(ops []planOp, record func(i int, r reply)) (lat []time.Duration, wall time.Duration) {
	lat = make([]time.Duration, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(planClients)
	for c := 0; c < planClients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				r := tr.do(&ops[i])
				lat[i] = time.Since(t0)
				record(i, r)
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

// accounting counts routes and outcomes and compares them with the request
// plan.
type accounting struct {
	mu       sync.Mutex
	routes   map[string]int
	outcomes map[string]int
	failed   int
	wrong    int // replies whose route or outcome differs from the plan
}

func newAccounting() *accounting {
	return &accounting{routes: map[string]int{}, outcomes: map[string]int{}}
}

// add records one reply; it returns false for a failed operation.
func (a *accounting) add(op *planOp, r reply, wantOutcome string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r.err != nil || r.status != http.StatusOK {
		a.failed++
		if a.failed <= 3 {
			fmt.Fprintf(os.Stderr, "request %s: status %d, err %v: %s\n", op.fp, r.status, r.err, bytes.TrimSpace(r.body))
		}
		return false
	}
	a.routes[r.route]++
	a.outcomes[r.outcome]++
	if r.route != op.route || r.outcome != wantOutcome {
		a.wrong++
		if a.wrong <= 3 {
			fmt.Fprintf(os.Stderr, "request %s: route %s outcome %s, want %s %s\n", op.fp, r.route, r.outcome, op.route, wantOutcome)
		}
	}
	return true
}

// report prints the counts and reports whether they match the request plan.
func (a *accounting) report(ops []planOp, wantOutcome string) bool {
	want := map[string]int{}
	for i := range ops {
		want[ops[i].route]++
	}
	fmt.Fprintf(os.Stderr, "routes %s (plan %s); outcomes %s; failed %d\n",
		countString(a.routes), countString(want), countString(a.outcomes), a.failed)
	ok := a.wrong == 0 && a.failed == 0 && a.outcomes[wantOutcome] == len(ops)
	for r, n := range want {
		ok = ok && a.routes[r] == n
	}
	return ok
}

func countString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Itoa(m[k])
	}
	return strings.Join(parts, " ")
}

// routeMedians groups latencies by the route each request took.
func routeMedians(ops []planOp, lat []time.Duration) map[string]time.Duration {
	by := map[string][]time.Duration{}
	for i := range ops {
		by[ops[i].route] = append(by[ops[i].route], lat[i])
	}
	out := map[string]time.Duration{}
	for r, ds := range by {
		out[r] = median(ds)
	}
	return out
}

// setUpPlans sets up planSetups times, closing all but the last tier, and
// returns the last tier, its request plan and the set-up times.
func setUpPlans(setup func() (*tierRun, []planOp, error)) (*tierRun, []planOp, []time.Duration, error) {
	var tr *tierRun
	var ops []planOp
	var setups []time.Duration
	for i := 0; i < planSetups; i++ {
		if tr != nil {
			tr.close()
			runtime.GC()
		}
		t0 := time.Now()
		t, o, err := setup()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		tr, ops = t, o
	}
	return tr, ops, setups, nil
}

// runPlanHot serves a small fixed set of fingerprints, computed during
// set-up, as LRU hits at the owner and peer-cache hits at the other shard.
func runPlanHot(cfg config) (result, error) {
	hot := hotRequests(cfg.seed)
	// The timed sequence: timedBlocks blocks, each of whole rounds of two
	// passes over a seeded permutation of the set. A pass has an odd length,
	// so within a round each fingerprint goes once to its owner and once to
	// the other shard.
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	round := 2 * len(hot)
	perBlock := round * ((opsFor(cfg.seconds, hotRate) + timedBlocks*round - 1) / (timedBlocks * round))
	order := make([]int, 0, perBlock*timedBlocks)
	for len(order) < cap(order) {
		perm := rng.Perm(len(hot))
		order = append(append(order, perm...), perm...)
	}
	var expected map[string][]byte
	setup := func() (*tierRun, []planOp, error) {
		tr, err := startTier()
		if err != nil {
			return nil, nil, err
		}
		reqs, err := prepare(tr.tier.Service(0), hot)
		if err != nil {
			tr.close()
			return nil, nil, err
		}
		// Fill: each fingerprint once through its non-owner, which proxies to
		// the owner (computing the plan there) and peer-fills its own LRU.
		expected = map[string][]byte{}
		for _, r := range reqs {
			op := planOp{planReq: r, target: (tr.owner(r.fp) + 1) % tierShards, route: shardsvc.RouteProxy}
			rep := tr.do(&op)
			if rep.err != nil || rep.status != http.StatusOK || rep.route != shardsvc.RouteProxy || rep.outcome != plansvc.OutcomeComputed {
				tr.close()
				return nil, nil, fmt.Errorf("fill %s: status %d route %q outcome %q err %v", r.fp, rep.status, rep.route, rep.outcome, rep.err)
			}
			expected[r.fp] = rep.body
		}
		seq := make([]*planReq, len(order))
		for j, k := range order {
			seq[j] = reqs[k]
		}
		return tr, tr.plan(seq, shardsvc.RouteLocalOwner, shardsvc.RoutePeerCache), nil
	}
	tr, ops, setups, err := setUpPlans(setup)
	if err != nil {
		return result{}, err
	}
	defer tr.close()

	acct := newAccounting()
	var ran []planOp // every request sent, in order; extra blocks repeat earlier ones
	var mismatched atomic.Int64
	runtime.GC()
	var probe *runtimeProbe
	if cfg.trace {
		probe = startRuntimeProbe()
	}
	blocks, err := runBlocks(timedBlocks, func(k int) ([]time.Duration, time.Duration, error) {
		bops := ops[(k%timedBlocks)*perBlock : (k%timedBlocks+1)*perBlock]
		ran = append(ran, bops...)
		lat, wall := tr.drive(bops, func(i int, r reply) {
			if acct.add(&bops[i], r, plansvc.OutcomeHit) && !bytes.Equal(r.body, expected[bops[i].fp]) {
				if mismatched.Add(1) <= 3 {
					fmt.Fprintf(os.Stderr, "request %s via %s: body differs from the set-up body\n", bops[i].fp, r.route)
				}
			}
			probe.sample()
		})
		return lat, wall, nil
	})
	if err != nil {
		return result{}, err
	}
	counters := probe.finish(len(ran))
	rss, err := vmHWM()
	if err != nil {
		return result{}, err
	}
	correct := acct.report(ran, plansvc.OutcomeHit) && mismatched.Load() == 0
	return planResult(cfg, true, correct, acct.failed, ran, timedRun{blocks: blocks, want: timedBlocks, unitsPerOp: 1, setups: setups, rssMB: rss}, counters)
}

// runPlanCold sends distinct fingerprints only, so every request runs the
// planner: guided search and the simulator for time plans, the Pareto sweep
// with its BFC memory replays for pareto plans. Each round sends the same
// 312 requests to a tier of its own, so nothing of a round is cached
// anywhere. Set-up starts the planned rounds' tiers; a round added for a
// disturbed block starts its tier outside the timed region.
func runPlanCold(cfg config) (result, error) {
	rounds := (opsFor(cfg.seconds, coldRate) + coldRound - 1) / coldRound
	reqs := coldRequests(cfg.seed)
	var tiers []*tierRun
	closeTiers := func() {
		for _, t := range tiers {
			if t != nil {
				t.close()
			}
		}
		tiers = nil
	}
	defer func() { closeTiers() }()
	var seq []*planReq
	var setups []time.Duration
	for i := 0; i < planSetups; i++ {
		closeTiers()
		runtime.GC()
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			tr, err := startTier()
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			tiers = append(tiers, tr)
		}
		var err error
		if seq, err = prepare(tiers[0].tier.Service(0), reqs); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}

	acct := newAccounting()
	var ran []planOp // every request sent, in order
	var bodies [][]byte
	runtime.GC()
	var probe *runtimeProbe
	if cfg.trace {
		probe = startRuntimeProbe()
	}
	blocks, err := runBlocks(rounds, func(k int) ([]time.Duration, time.Duration, error) {
		if k >= len(tiers) {
			tr, err := startTier()
			if err != nil {
				return nil, 0, err
			}
			tiers = append(tiers, tr)
		}
		tr := tiers[k]
		ops := tr.plan(seq, shardsvc.RouteLocalOwner, shardsvc.RouteProxy)
		first := len(ran)
		ran = append(ran, ops...)
		bodies = append(bodies, make([][]byte, len(ops))...)
		lat, wall := tr.drive(ops, func(i int, r reply) {
			if acct.add(&ops[i], r, plansvc.OutcomeComputed) {
				bodies[first+i] = r.body
			}
			probe.sample()
		})
		tr.close()
		tiers[k] = nil
		return lat, wall, nil
	})
	if err != nil {
		return result{}, err
	}
	counters := probe.finish(len(ran))
	rss, err := vmHWM()
	if err != nil {
		return result{}, err
	}
	correct := acct.report(ran, plansvc.OutcomeComputed)
	if err := checkColdPlans(ran, bodies); err != nil {
		fmt.Fprintln(os.Stderr, "check:", err)
		correct = false
	}
	return planResult(cfg, false, correct, acct.failed, ran, timedRun{blocks: blocks, want: rounds, unitsPerOp: 1, setups: setups, rssMB: rss}, counters)
}

// planResult assembles a plan workload's result: end-to-end metrics, or in a
// traced run the per-layer metrics with this run's route latencies.
func planResult(cfg config, hot, correct bool, failed int, ran []planOp, run timedRun, counters map[string]metric) (result, error) {
	res := result{Correct: correct, Attempted: len(ran), Failed: failed}
	if !cfg.trace {
		res.Metrics = run.endToEnd()
		return res, nil
	}
	m := counters
	lat := allLatencies(run.blocks)
	planMix, err := layerSuite(cfg.seed, m, routeMedians(ran, lat))
	if err != nil {
		return result{}, err
	}
	covered := ms(planMix)
	if hot {
		covered = m["svc.fingerprint_ms"].Value + m["svc.cache_lookup_ms"].Value
	}
	m["trace.covered_share"] = metric{covered / ms(median(lat)), "ratio"}
	res.Metrics = m
	return res, nil
}

// ---- plan-cold output checks ----

// dpConfig identifies one data-parallel planning problem.
type dpConfig struct {
	model, preset, method string
	gpus                  int
}

// problem is a planning problem rebuilt by the benchmark from public model,
// cluster and simulator functions, with its exhaustive time optimum.
type problem struct {
	model      *models.Model
	costs      core.IterCosts
	prio       func(int) int
	preemptive bool
	best       time.Duration // min over k ∈ [0, L) of the reverse-first-k makespan
}

// channel is the synchronization channel of a data-parallel method: P3
// prioritizes by layer without preemption, BytePS-style methods prioritize
// and preempt, the others are FIFO.
func channel(m datapar.Method) (func(int) int, bool) {
	switch m {
	case datapar.P3:
		return func(l int) int { return l }, false
	case datapar.BytePS, datapar.OOOBytePS:
		return func(l int) int { return l }, true
	}
	return func(int) int { return 0 }, false
}

func newProblem(c dpConfig) (*problem, error) {
	cl := presetCluster[c.preset]
	m, err := models.BuildZoo(c.model, cl.Profile)
	if err != nil {
		return nil, err
	}
	method := methodOf[c.method]
	p := &problem{model: m, costs: datapar.Costs(m, cl, c.gpus, method)}
	p.prio, p.preemptive = channel(method)
	var sc core.IterScratch
	for k := 0; k < len(m.Layers); k++ {
		ms := sc.SimulateIteration(p.costs, core.ReverseFirstK(m, k, 0), p.prio, p.preemptive).Makespan
		if k == 0 || ms < p.best {
			p.best = ms
		}
	}
	return p, nil
}

func (p *problem) simulate(s graph.BackwardSchedule) time.Duration {
	var sc core.IterScratch
	return sc.SimulateIteration(p.costs, s, p.prio, p.preemptive).Makespan
}

// checkColdPlans checks every plan-cold response against the exhaustive
// optimum and a fresh simulation, both computed here after the timed region.
func checkColdPlans(ops []planOp, bodies [][]byte) error {
	keys := map[dpConfig]int{}
	var cfgs []dpConfig
	for i := range ops {
		r := ops[i].PlanRequest
		c := dpConfig{r.Model, r.Cluster.Preset, r.Method, r.Cluster.GPUs}
		if _, ok := keys[c]; !ok {
			keys[c] = len(cfgs)
			cfgs = append(cfgs, c)
		}
	}
	probs := make([]*problem, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(procs)
	for w := 0; w < procs; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				probs[i], errs[i] = newProblem(cfgs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var bad []string
	timeProblems, missed := map[int]bool{}, map[int]bool{}
	maxGap := 0.0
	for i := range ops {
		if bodies[i] == nil {
			continue // a failed request, counted in failed
		}
		r := ops[i].PlanRequest
		key := keys[dpConfig{r.Model, r.Cluster.Preset, r.Method, r.Cluster.GPUs}]
		p := probs[key]
		var resp plansvc.PlanResponse
		err := json.Unmarshal(bodies[i], &resp)
		if err == nil {
			if r.Objective == plansvc.ObjectivePareto {
				err = checkParetoPlan(p, &resp)
			} else if err = checkTimePlan(p, &resp); err == nil {
				timeProblems[key] = true
				if gap := float64(resp.IterTimeNs)/float64(p.best) - 1; gap > 0 {
					missed[key] = true
					maxGap = max(maxGap, gap)
				}
			}
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s %s/%d %s %s: %v", r.Model, r.Cluster.Preset, r.Cluster.GPUs, r.Method, r.Objective, err))
		}
	}
	fmt.Fprintf(os.Stderr, "guided vs exhaustive: %d of %d distinct time problems above the optimum, by at most %.2f%%\n", len(missed), len(timeProblems), 100*maxGap)
	if len(bad) > 0 {
		if len(bad) > 5 {
			bad = append(bad[:5], fmt.Sprintf("… %d more", len(bad)-5))
		}
		return fmt.Errorf("%d bad plans: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}

func checkTimePlan(p *problem, resp *plansvc.PlanResponse) error {
	L := len(p.model.Layers)
	s, err := parseSchedule(resp.Schedule, L)
	if err != nil {
		return err
	}
	if got := p.simulate(s); int64(got) != resp.IterTimeNs {
		return fmt.Errorf("iter_time_ns %d, fresh simulation of the schedule %d", resp.IterTimeNs, got)
	}
	if base := p.simulate(graph.Conventional(L)); int64(base) != resp.BaselineIterTimeNs {
		return fmt.Errorf("baseline_iter_time_ns %d, simulated conventional order %d", resp.BaselineIterTimeNs, base)
	}
	if resp.IterTimeNs > resp.BaselineIterTimeNs {
		return fmt.Errorf("plan %d ns slower than the baseline %d ns", resp.IterTimeNs, resp.BaselineIterTimeNs)
	}
	best := int64(p.best)
	if float64(resp.IterTimeNs) > 1.02*float64(best) {
		return fmt.Errorf("plan %d ns more than 2%% above the exhaustive optimum %d ns", resp.IterTimeNs, best)
	}
	if resp.SearchStats != nil && resp.SearchStats.CutoffProven && resp.IterTimeNs != best {
		return fmt.Errorf("cutoff_proven plan %d ns, exhaustive optimum %d ns", resp.IterTimeNs, best)
	}
	return nil
}

func checkParetoPlan(p *problem, resp *plansvc.PlanResponse) error {
	pts := resp.Pareto
	if len(pts) == 0 {
		return fmt.Errorf("no pareto points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].IterTimeNs <= pts[i-1].IterTimeNs || pts[i].PeakMemoryBytes >= pts[i-1].PeakMemoryBytes {
			return fmt.Errorf("point %d (%d ns, %d B) does not follow (%d ns, %d B) with more time and less memory",
				i, pts[i].IterTimeNs, pts[i].PeakMemoryBytes, pts[i-1].IterTimeNs, pts[i-1].PeakMemoryBytes)
		}
	}
	if pts[0].IterTimeNs != int64(p.best) {
		return fmt.Errorf("first pareto point %d ns, exhaustive time optimum %d ns", pts[0].IterTimeNs, int64(p.best))
	}
	return nil
}

// parseSchedule reads a plan's schedule ("dO9", "dW9", …) and checks it is a
// legal backward order for L layers: each δO_i and δW_i exactly once, each
// after δO_{i+1}.
func parseSchedule(ops []string, L int) (graph.BackwardSchedule, error) {
	if len(ops) != 2*L {
		return nil, fmt.Errorf("schedule has %d ops, want %d", len(ops), 2*L)
	}
	doneDO := make([]bool, L+2)
	doneDO[L+1] = true
	doneDW := make([]bool, L+1)
	s := make(graph.BackwardSchedule, 0, 2*L)
	for _, op := range ops {
		kind := graph.OutGrad
		rest, isDO := strings.CutPrefix(op, "dO")
		if !isDO {
			var isDW bool
			if rest, isDW = strings.CutPrefix(op, "dW"); !isDW {
				return nil, fmt.Errorf("unknown op %q", op)
			}
			kind = graph.WeightGrad
		}
		i, err := strconv.Atoi(rest)
		if err != nil || i < 1 || i > L {
			return nil, fmt.Errorf("bad layer in op %q", op)
		}
		if !doneDO[i+1] {
			return nil, fmt.Errorf("op %q runs before dO%d", op, i+1)
		}
		done := doneDO
		if kind == graph.WeightGrad {
			done = doneDW
		}
		if done[i] {
			return nil, fmt.Errorf("op %q repeats", op)
		}
		done[i] = true
		s = append(s, graph.Op{Kind: kind, Layer: i})
	}
	return s, nil
}
