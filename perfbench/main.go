// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process at GOMAXPROCS=2, does a fixed amount of work derived
// only from --seconds, checks the outputs against properties of the method,
// and prints one JSON result line:
//
//	perfbench --workload train-ooo --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, timed around calls into public functions of
// the engines and the plan tier. The steadiness mode runs one workload N
// times in child processes and prints each metric's median, quartiles and
// range:
//
//	perfbench steady --workload plan-cold --runs 10 --seconds 20
//
// See README.md for the workloads, the metrics and the measured spreads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS every workload runs at: the host has two cores, and
// the paper's single-device effect needs the second one for δW.
const procs = 2

// minOps is the floor on timed operations per run, so that at least 100
// operations lie beyond the reported 90th percentile.
const minOps = 1000

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed    uint64
	seconds int
	trace   bool
}

// workload runs one workload and returns its result. An error means the run
// could not be carried out at all (no result is printed); failed checks are
// reported through result.Correct.
type workload func(cfg config) (result, error)

var workloads = map[string]workload{
	"train-ooo":  runTrainOOO,
	"train-pipe": runTrainPipe,
	"plan-hot":   runPlanHot,
	"plan-cold":  runPlanCold,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: train-ooo | train-pipe | plan-hot | plan-cold")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "run length the fixed amount of work is sized for")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// The process's parallelism and GC policy are fixed here, never
	// inherited from the environment.
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	m0, own0 := readMachineCPU(), cpuTime()
	res, err := wl(config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	fmt.Fprintf(os.Stderr, "CPU time that went elsewhere during the run: %.1f%%\n", 100*readMachineCPU().disturbance(m0, cpuTime()-own0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- end-to-end metrics ----

// disturbLimit is the largest share of the machine's CPU time that may go
// elsewhere during a block — to other guests of the host (the steal column of
// /proc/stat) or to processes of this machine other than the benchmark — for
// the block to count as undisturbed. An idle machine shows about 1.5%.
const disturbLimit = 0.04

// timedBlocks is the number of blocks of identical work the end-to-end
// metrics of the training and plan-hot workloads are computed from.
const timedBlocks = 10

// block is one block of a workload's timed region: consecutive operations of
// the same mix as every other block of the run.
type block struct {
	lat     []time.Duration // each operation's latency
	wall    time.Duration   // wall time of the whole block
	disturb float64         // share of the machine's CPU time that went elsewhere
}

// runBlocks runs blocks 0, 1, … of identical work through run until want
// blocks have run and, for every block disturbed beyond disturbLimit, one
// more block (at most want/4 more in all, which bounds the run's length).
// Steal and other processes come and go in bursts; the extra blocks give the
// end-to-end metrics want undisturbed blocks to be computed from whenever
// the bursts leave them.
func runBlocks(want int, run func(k int) (lat []time.Duration, wall time.Duration, err error)) ([]block, error) {
	var bs []block
	disturbed := 0
	for k := 0; k < want+min(disturbed, want/4); k++ {
		m0, own0 := readMachineCPU(), cpuTime()
		lat, wall, err := run(k)
		if err != nil {
			return nil, err
		}
		b := block{lat: lat, wall: wall, disturb: readMachineCPU().disturbance(m0, cpuTime()-own0)}
		if b.disturb > disturbLimit {
			disturbed++
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// allLatencies concatenates the latencies of every block, in run order.
func allLatencies(bs []block) []time.Duration {
	var out []time.Duration
	for _, b := range bs {
		out = append(out, b.lat...)
	}
	return out
}

// timedRun is what every workload's timed region records.
type timedRun struct {
	blocks     []block         // every block that ran, in order
	want       int             // blocks the end-to-end metrics are computed from
	unitsPerOp float64         // samples per step, or 1 per request
	setups     []time.Duration // each set-up of the run
	rssMB      float64         // VmHWM read right after the timed region
}

// endToEnd computes the end-to-end metrics over the want least disturbed
// blocks (earlier blocks first among equals): throughput over their summed
// wall time, and the latency percentiles over all their operations.
func (r timedRun) endToEnd() map[string]metric {
	idx := make([]int, len(r.blocks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.blocks[idx[a]].disturb < r.blocks[idx[b]].disturb })
	var lat []time.Duration
	var wall time.Duration
	worst := 0.0
	for _, i := range idx[:r.want] {
		lat = append(lat, r.blocks[i].lat...)
		wall += r.blocks[i].wall
		worst = max(worst, r.blocks[i].disturb)
	}
	fmt.Fprintf(os.Stderr, "blocks: %d run, %d kept, most disturbed kept %.1f%%\n", len(r.blocks), r.want, 100*worst)
	sorted := sortedDurations(lat)
	return map[string]metric{
		"throughput_per_s": {r.unitsPerOp * float64(len(lat)) / wall.Seconds(), "1/s"},
		"latency_p50_ms":   {ms(quantile(sorted, 0.50)), "ms"},
		"latency_p90_ms":   {ms(quantile(sorted, 0.90)), "ms"},
		"setup_s":          {median(r.setups).Seconds(), "s"},
		"peak_rss_mb":      {r.rssMB, "MiB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(ds []time.Duration) time.Duration { return quantile(sortedDurations(ds), 0.5) }

// vmHWM returns the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// opsFor sizes a run's planned blocks: rate operations per requested second,
// never fewer than minOps. The count depends only on the arguments, never on
// timing.
func opsFor(seconds, rate int) int {
	if n := seconds * rate; n > minOps {
		return n
	}
	return minOps
}

// ---- runtime counters (traced runs) ----

// runtimeProbe brackets a workload's timed region in a traced run:
// allocations, allocated bytes, GC cycles and heap peak from
// runtime.MemStats, CPU time of the whole process from getrusage.
type runtimeProbe struct {
	ms0  runtime.MemStats
	cpu0 time.Duration

	mu       sync.Mutex // guards heapPeak; client goroutines sample concurrently
	heapPeak uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{}
	runtime.ReadMemStats(&p.ms0)
	p.heapPeak = p.ms0.HeapAlloc
	p.cpu0 = cpuTime()
	return p
}

// sample records the live heap; call it between operations. It does nothing
// on a nil probe (an untraced run).
func (p *runtimeProbe) sample() {
	if p == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.mu.Lock()
	if m.HeapAlloc > p.heapPeak {
		p.heapPeak = m.HeapAlloc
	}
	p.mu.Unlock()
}

// finish ends the probe right after the timed region and returns the
// runtime.* metrics per operation; a nil probe returns nil.
func (p *runtimeProbe) finish(ops int) map[string]metric {
	if p == nil {
		return nil
	}
	cpu := cpuTime() - p.cpu0
	p.sample()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := float64(ops)
	return map[string]metric{
		"runtime.allocs_per_op":   {float64(m.Mallocs-p.ms0.Mallocs) / n, "count"},
		"runtime.alloc_kb_per_op": {float64(m.TotalAlloc-p.ms0.TotalAlloc) / 1024 / n, "KiB"},
		"runtime.gc_per_kop":      {float64(m.NumGC-p.ms0.NumGC) * 1000 / n, "count"},
		"runtime.cpu_ms_per_op":   {ms(cpu) / n, "ms"},
		"runtime.heap_peak_mb":    {float64(p.heapPeak) / (1 << 20), "MiB"},
	}
}

// ---- steadiness mode ----

// steady runs one workload several times in child processes, one seed each,
// and prints each metric's median, quartiles (Python's
// statistics.quantiles(n=4), exclusive method), range, and interquartile
// spread as a share of the median.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs, seeds first-seed … first-seed+runs-1")
	first := fs.Uint64("first-seed", 1, "seed of the first run")
	seconds := fs.Int("seconds", 20, "--seconds passed to every run")
	trace := fs.Int("trace", 0, "--trace passed to every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *runs < 2 {
		return fmt.Errorf("need at least 2 runs, got %d", *runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < *runs; i++ {
		seed := *first + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		var stderr strings.Builder
		cmd.Stderr = &stderr
		m0 := readMachineCPU()
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run seed %d: %w: %s", seed, err, stderr.String())
		}
		elsewhere := readMachineCPU().disturbance(m0, cmd.ProcessState.UserTime()+cmd.ProcessState.SystemTime())
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run seed %d: outputs incorrect", seed)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		var blocks string
		for _, l := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(l, "blocks: ") {
				blocks = "; " + l
			}
		}
		fmt.Fprintf(os.Stderr, "seed %d (CPU time elsewhere %.1f%%%s): %s\n", seed, 100*elsewhere, blocks, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs of --seconds %d, failed/attempted per run: %s\n", *name, *runs, *seconds, strings.Join(shares, " "))
	fmt.Printf("%-28s %-6s %12s %12s %12s %12s %12s %9s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, k := range names {
		v := append([]float64(nil), values[k]...)
		sort.Float64s(v)
		q1, q2, q3 := quartiles(v)
		spread := math.NaN()
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Printf("%-28s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %8.2f%%\n", k, units[k], q2, q1, q3, v[0], v[len(v)-1], 100*spread)
	}
	return nil
}

// clockTick is the unit of the CPU counters in /proc/stat (USER_HZ).
const clockTick = 10 * time.Millisecond

// machineCPU holds the machine's cumulative CPU counters from /proc/stat,
// summed over its CPUs, in clock ticks.
type machineCPU struct {
	busy  uint64 // user, nice, system, irq and softirq
	steal uint64 // given by the hypervisor to other guests of the host
	total uint64 // busy, idle, iowait and steal
}

func readMachineCPU() machineCPU {
	var m machineCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64)
		m.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			m.busy += v
		case 7:
			m.steal = v
		}
	}
	return m
}

// disturbance is the share of the machine's CPU time since m0 that went to
// other guests of the host or to processes other than the benchmark, whose
// own CPU time over the same span is own. It is 0 when no tick passed or
// /proc/stat cannot be read.
func (m machineCPU) disturbance(m0 machineCPU, own time.Duration) float64 {
	if m.total <= m0.total {
		return 0
	}
	others := float64(m.busy-m0.busy) - float64(own)/float64(clockTick)
	return (float64(m.steal-m0.steal) + max(others, 0)) / float64(m.total-m0.total)
}

// quartiles mirrors Python's statistics.quantiles(data, n=4) with the default
// exclusive method, on ascending data of length ≥ 2.
func quartiles(data []float64) (q1, q2, q3 float64) {
	const n = 4
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
