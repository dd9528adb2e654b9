package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"oooback/internal/data"
	"oooback/internal/graph"
	"oooback/internal/nn"
	"oooback/internal/tensor"
	"oooback/internal/train"
)

// The training workloads train one seeded CNN on a synthetic image task.
// Three Conv2D/ReLU blocks over 16×16 inputs make δW a large share of the
// backward pass, as in the paper's §8 CNNs, while a step stays short enough
// for ≥ 1000 timed steps per run.
const (
	imgSize     = 16
	batchSize   = 32
	numBatches  = 16 // the dataset is numBatches batches, visited cyclically
	classes     = 10
	learnRate   = 0.02
	warmupSteps = 20 // run before timing; counted in setup_s
	// replaySteps timed steps (after the warm-up) are replayed through the
	// naive reference and compared bit for bit.
	replaySteps = 40
	// trainSetups is how many times a run sets up; setup_s is their median.
	trainSetups = 9

	pipeStages = 2
	pipeMicro  = 8

	// Timed steps per requested second, sized so a run lasts about
	// --seconds on a 2-core host.
	oooRate  = 70
	pipeRate = 140
)

// buildNet builds the benchmark CNN from a seed with the public nn
// constructors: 1×16×16 → conv 4 → conv 8 → conv 8 (3×3, valid) → pool →
// dense 10. L = 9 layers.
func buildNet(seed uint64) *train.Network {
	rng := tensor.NewRNG(seed)
	pooled := (imgSize - 6) / 2
	return &train.Network{Layers: []nn.Layer{
		nn.NewConv2D("conv1", 4, 1, 3, 3, rng), nn.NewReLU("relu1"),
		nn.NewConv2D("conv2", 8, 4, 3, 3, rng), nn.NewReLU("relu2"),
		nn.NewConv2D("conv3", 8, 8, 3, 3, rng), nn.NewReLU("relu3"),
		nn.NewMaxPool2("pool"), nn.NewFlatten("flat"),
		nn.NewDense("fc", 8*pooled*pooled, classes, rng),
	}}
}

func netSeed(seed uint64) uint64  { return 2*seed + 1 }
func dataSeed(seed uint64) uint64 { return 2*seed + 2 }

type dataset struct {
	x []*tensor.Tensor
	y [][]int
}

func makeData(seed uint64) dataset {
	x, y := data.Images(dataSeed(seed), batchSize*numBatches, 1, imgSize, imgSize, classes)
	per := batchSize * imgSize * imgSize
	var d dataset
	for b := 0; b < numBatches; b++ {
		t := tensor.New(batchSize, 1, imgSize, imgSize)
		copy(t.Data, x.Data[b*per:(b+1)*per])
		d.x = append(d.x, t)
		d.y = append(d.y, y[b*batchSize:(b+1)*batchSize])
	}
	return d
}

// trainer is one engine set up on the benchmark net and warmed up.
type trainer struct {
	net        *train.Network // holds the trained parameters
	step       func(step int) (float64, error)
	close      func()
	losses     []float64                 // warm-up losses
	firstGrads map[string]*tensor.Tensor // gradients of the first step
	pipeStats  train.PipeStepStats       // last pipeline step (PerStage copied)
}

// warmUp runs the warm-up steps, keeping their losses and the first step's
// gradients for the checks.
func (tr *trainer) warmUp() error {
	for s := 0; s < warmupSteps; s++ {
		loss, err := tr.step(s)
		if err != nil {
			return fmt.Errorf("warm-up step %d: %w", s, err)
		}
		if s == 0 {
			tr.firstGrads = train.GradSnapshot(tr.net)
		}
		tr.losses = append(tr.losses, loss)
	}
	return nil
}

// newOOOTrainer sets up the concurrent Executor under reverse-first-k with
// k = L.
func newOOOTrainer(seed uint64, mode train.ExecMode, sched func(L int) graph.BackwardSchedule) (*trainer, error) {
	net := buildNet(netSeed(seed))
	d := makeData(seed)
	s := sched(len(net.Layers))
	e := train.NewExecutor(mode, 0)
	opt := &nn.SGD{LR: learnRate}
	tr := &trainer{net: net, close: e.Close}
	tr.step = func(step int) (float64, error) {
		b := step % numBatches
		return e.Step(net, d.x[b], d.y[b], s, opt)
	}
	if err := tr.warmUp(); err != nil {
		e.Close()
		return nil, err
	}
	return tr, nil
}

func reverseFirstL(L int) graph.BackwardSchedule { return graph.ReverseFirstK(L, L) }

// newPipeTrainer sets up the 2-stage, 8-microbatch 1F1B pipeline.
func newPipeTrainer(seed uint64, fill bool) (*trainer, error) {
	build := func() *train.Network { return buildNet(netSeed(seed)) }
	d := makeData(seed)
	p, err := train.NewPipeline(build(), &nn.SGD{LR: learnRate}, train.PipelineConfig{
		Stages: pipeStages, MicroBatches: pipeMicro, Schedule: train.Pipe1F1B,
		Build: build, NoDWFill: !fill,
	})
	if err != nil {
		return nil, err
	}
	tr := &trainer{net: p.Net(), close: p.Close}
	tr.pipeStats.PerStage = make([]train.StageStats, pipeStages)
	tr.step = func(step int) (float64, error) {
		b := step % numBatches
		loss, st, err := p.Step(d.x[b], d.y[b])
		per := tr.pipeStats.PerStage
		copy(per, st.PerStage)
		tr.pipeStats = st
		tr.pipeStats.PerStage = per
		return loss, err
	}
	if err := tr.warmUp(); err != nil {
		p.Close()
		return nil, err
	}
	return tr, nil
}

func runTrainOOO(cfg config) (result, error) {
	return runTraining(cfg, oooRate, true, func(seed uint64) (*trainer, error) {
		return newOOOTrainer(seed, train.ExecConcurrent, reverseFirstL)
	})
}

func runTrainPipe(cfg config) (result, error) {
	return runTraining(cfg, pipeRate, false, func(seed uint64) (*trainer, error) {
		return newPipeTrainer(seed, true)
	})
}

// runTraining sets up trainSetups times (keeping the last), runs the timed
// steps, and checks the trained state against the naive reference.
func runTraining(cfg config, rate int, gradCheck bool, setup func(seed uint64) (*trainer, error)) (result, error) {
	var tr *trainer
	var setups []time.Duration
	for i := 0; i < trainSetups; i++ {
		if tr != nil {
			tr.close()
			tr = nil
			runtime.GC()
		}
		t0 := time.Now()
		t, err := setup(cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		tr = t
	}
	defer tr.close()

	per := (opsFor(cfg.seconds, rate) + timedBlocks - 1) / timedBlocks
	losses := append(make([]float64, 0, warmupSteps+2*timedBlocks*per), tr.losses...)
	var snap map[string]*tensor.Tensor
	failed, steps := 0, 0
	var stages []train.StageStats // traced runs: every pipeline step's stage stats
	var probe *runtimeProbe
	runtime.GC()
	if cfg.trace {
		probe = startRuntimeProbe()
	}
	blocks, err := runBlocks(timedBlocks, func(int) ([]time.Duration, time.Duration, error) {
		lat := make([]time.Duration, per)
		start := time.Now()
		for i := range lat {
			step := warmupSteps + steps
			t0 := time.Now()
			loss, err := tr.step(step)
			lat[i] = time.Since(t0)
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "step %d: %v\n", step, err)
				loss = math.NaN()
			}
			losses = append(losses, loss)
			steps++
			if steps == replaySteps {
				snap = train.ParamSnapshot(tr.net)
			}
			if cfg.trace {
				probe.sample()
				stages = append(stages, tr.pipeStats.PerStage...)
			}
		}
		return lat, time.Since(start), nil
	})
	if err != nil {
		return result{}, err
	}
	counters := probe.finish(steps)
	rss, err := vmHWM()
	if err != nil {
		return result{}, err
	}
	run := timedRun{blocks: blocks, want: timedBlocks, unitsPerOp: batchSize, setups: setups, rssMB: rss}

	correct := checkTraining(cfg.seed, losses, snap, tr.firstGrads, gradCheck)
	res := result{Correct: correct, Attempted: steps, Failed: failed}
	if !cfg.trace {
		res.Metrics = run.endToEnd()
		return res, nil
	}
	m := counters
	lat := allLatencies(blocks)
	stepMedian := median(lat)
	if _, err := layerSuite(cfg.seed, m, nil); err != nil {
		return result{}, err
	}
	covered := m["train.forward_ms"].Value + m["train.loss_ms"].Value + m["train.backward_ms"].Value + m["train.update_ms"].Value
	if len(stages) > 0 {
		covered = ms(stageCovered(stages, lat))
	}
	m["trace.covered_share"] = metric{covered / ms(stepMedian), "ratio"}
	res.Metrics = m
	return res, nil
}

// stageCovered is the median over steps of the busiest stage's timed work
// (compute plus exposed idle), the part of a pipeline step the per-stage
// metrics account for.
func stageCovered(stages []train.StageStats, lat []time.Duration) time.Duration {
	per := make([]time.Duration, 0, len(lat))
	for i := 0; i+pipeStages <= len(stages); i += pipeStages {
		var most time.Duration
		for _, s := range stages[i : i+pipeStages] {
			if t := s.Busy() + s.Idle; t > most {
				most = t
			}
		}
		per = append(per, most)
	}
	return median(per)
}

// checkTraining replays the warm-up and the first replaySteps timed steps
// through the naive reference (nil Executor, conventional order) from the
// same seed and requires every loss and the parameters after the prefix to
// match bit for bit (the paper's §8 property); checks the engine's
// first-step gradients against central differences of the loss when asked;
// and requires the loss over the last pass through the data to be below the
// loss over the first.
func checkTraining(seed uint64, losses []float64, snap map[string]*tensor.Tensor, firstGrads map[string]*tensor.Tensor, gradCheck bool) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(os.Stderr, "check: "+format+"\n", args...)
	}
	ref := buildNet(netSeed(seed))
	d := makeData(seed)
	if gradCheck {
		if err := checkGradients(seed, ref, d, firstGrads); err != nil {
			fail("%v", err)
		}
	}
	sched := graph.Conventional(len(ref.Layers))
	opt := &nn.SGD{LR: learnRate}
	for s := 0; s < warmupSteps+replaySteps; s++ {
		b := s % numBatches
		loss, err := train.Step(ref, d.x[b], d.y[b], sched, opt)
		if err != nil {
			fail("reference step %d: %v", s, err)
			break
		}
		if loss != losses[s] || math.IsNaN(loss) {
			fail("step %d loss %v, reference %v", s, losses[s], loss)
			break
		}
	}
	if snap == nil || !train.SnapshotsEqual(train.ParamSnapshot(ref), snap) {
		fail("parameters after %d steps differ from the reference", warmupSteps+replaySteps)
	}
	first, last := meanOf(losses[:numBatches]), meanOf(losses[len(losses)-numBatches:])
	if !(last < first) {
		fail("loss did not fall: first pass %v, last pass %v", first, last)
	}
	return ok
}

func meanOf(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// checkGradients compares two sampled elements of every parameter's
// first-step gradient with a central difference of the loss at the initial
// weights on the first batch. When a ReLU or max-pool kink lies inside
// [w−h, w+h] the central difference is off; then a one-sided difference on
// the kink-free side must agree instead.
func checkGradients(seed uint64, ref *train.Network, d dataset, grads map[string]*tensor.Tensor) error {
	const h = 1e-8
	lossAt := func() float64 {
		l, _ := nn.SoftmaxCrossEntropy(ref.Forward(d.x[0]), d.y[0])
		return l
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	base := lossAt()
	for _, p := range ref.Params() {
		g, ok := grads[p.Name]
		if !ok {
			return fmt.Errorf("gradient check: no first-step gradient for %s", p.Name)
		}
		for j := 0; j < 2; j++ {
			idx := rng.Intn(len(p.Value.Data))
			w := p.Value.Data[idx]
			wp, wm := w+h, w-h
			p.Value.Data[idx] = wp
			lp := lossAt()
			p.Value.Data[idx] = wm
			lm := lossAt()
			p.Value.Data[idx] = w
			got := g.Data[idx]
			tol := 1e-6 + 1e-4*math.Abs(got)
			central := (lp - lm) / (wp - wm)
			fwd := (lp - base) / (wp - w)
			bwd := (base - lm) / (w - wm)
			if math.Abs(central-got) > tol && math.Abs(fwd-got) > tol && math.Abs(bwd-got) > tol {
				return fmt.Errorf("gradient check: %s[%d] engine %v, central difference %v", p.Name, idx, got, central)
			}
		}
	}
	return nil
}
