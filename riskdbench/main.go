// Command riskdbench is the end-to-end benchmark of riskd at the paper's
// Figure 9 scale. It serves riskd in-process (server.New(...).Handler() on
// a loopback listener, riskd's flag defaults except one worker per
// assessment) and drives it with one client in a closed loop over one
// keep-alive connection.
//
// Usage:
//
//	riskdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads are retail_hot, pumsb_cold, connect_sampled and retail_delta;
// BENCHMARK.json at the repository root says why each exists. Inputs are
// generated from internal/datagen's Figure 9 plans and the seed, and every
// request is encoded before any clock starts.
//
// With --trace 0 the run measures the end-to-end metrics with tracing off:
// process CPU time per request (median and mean), set-up CPU time, retained
// heap and the share of correct answers. Wall-clock latency is printed as a
// diagnostic.
// With --trace 1 it measures the per-layer metrics: a third of the time end
// to end for the process-wide runtime counters and the wall-clock median,
// then the same loop, an untraced and a traced in-process replay take turns
// request by request.
// The replays call each layer's public function in the order riskd's
// handlers do. Spans are kept in memory and written to
// .bench_build/riskdbench/ when the run ends.
//
// The run prints a report, then, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Set-up boots per run; setup_s is their median.
const boots = 15

// cpuWindows is the number of consecutive windows of timed requests whose
// mean CPU per request cpu_ms_per_op takes the median of: a contention
// episode on a shared host that covers less than half a run does not move
// it.
const cpuWindows = 10

// warmup is the number of requests sent after the fill and before the
// clock starts, per workload: 64 fills riskd's table registry on the
// workloads that register a new table per request.
var warmup = map[string]int{
	retailHot:      200,
	pumsbCold:      64,
	connectSampled: 64,
	retailDelta:    64,
}

// replayWarmup is the replays' warm-up: a replay measures no heap, so the
// expensive workloads only need their first computations out of the way.
var replayWarmup = map[string]int{
	retailHot:      200,
	pumsbCold:      4,
	connectSampled: 2,
	retailDelta:    64,
}

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

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace, filepath.Join(".bench_build", "riskdbench")); err != nil {
		fmt.Fprintln(os.Stderr, "riskdbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints the report and the result line to
// w. A traced run saves its spans under spansDir.
func run(w io.Writer, workload string, seed int64, seconds, trace int, spansDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d, want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d, want 0 or 1", trace)
	}
	probeBefore := probes(3)
	s, err := generate(workload, seed, streamLen[workload])
	if err != nil {
		return err
	}
	defer s.mem.free()
	fmt.Fprintf(w, "workload %s  seed %d  stream %d requests  digest %s\n", s.name, seed, len(s.reqs), s.digest)
	fmt.Fprintf(w, "nproc %d  GOMAXPROCS %d  %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	dur := time.Duration(seconds) * time.Second
	var res *result
	if trace == 0 {
		res, err = endToEnd(w, s, dur)
	} else {
		res, err = perLayer(w, s, dur, filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", s.name, seed)))
	}
	if err != nil {
		return err
	}
	probeAfter := probes(3)
	fmt.Fprintf(w, "machine.probe_ms before %.3f after %.3f\n", probeBefore, probeAfter)
	if trace == 1 {
		res.Metrics["machine.probe_ms"] = metric{(probeBefore + probeAfter) / 2, "ms"}
	}
	printMetrics(w, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// endToEnd measures set-up, then the timed closed loop, then checks every
// timed response. The gated times are process CPU time: on a shared host,
// hypervisor steal moves wall-clock medians far more than any code change
// the benchmark must resolve, so wall-clock figures are printed beside them
// as diagnostics.
func endToEnd(w io.Writer, s *stream, dur time.Duration) (*result, error) {
	setupCPU := make([]float64, boots)
	setupWall := make([]float64, boots)
	for i := range setupCPU {
		k, err := fillOnce(s)
		if err != nil {
			return nil, err
		}
		setupCPU[i], setupWall[i] = k.cpu.Seconds(), k.wall.Seconds()
	}
	t, err := runTimed(s, warmup[s.name], dur)
	if err != nil {
		return nil, err
	}
	defer t.mem.free()
	chk := check(s, t)
	if chk.first != "" {
		fmt.Fprintln(w, "first failure:", chk.first)
	}
	n := len(t.lat)
	cpuPerOp := windowMedian(t.cpuLat, cpuWindows)
	cpuP50 := median(t.cpuLat)
	heap := median(t.heaps)
	fmt.Fprintf(w, "timed %d requests in %.2fs over %d pass(es); retained heap median %.4f MiB\n", n, t.wall.Seconds(), t.passes, heap)
	fmt.Fprintf(w, "process CPU per request: p50 %.4f ms  p99 %.4f ms  median of %d window means %.4f ms  whole-phase mean %.4f ms;  wall clock: p50 %.4f ms  p90 %.4f ms  p99 %.4f ms (diagnostic; %d samples)\n",
		cpuP50, quantile(t.cpuLat, 0.99), cpuWindows, cpuPerOp, ms(t.cpu)/float64(n), median(t.lat), quantile(t.lat, 0.9), quantile(t.lat, 0.99), n)
	fmt.Fprintf(w, "set-up, %d boots: CPU median %.4fs;  wall clock median %.4fs  min %.4fs  max %.4fs\n",
		boots, median(setupCPU), median(setupWall), quantile(setupWall, 0), quantile(setupWall, 1))
	return &result{
		Correct:   chk.ok == n,
		Attempted: n,
		Failed:    n - chk.ok,
		Metrics: map[string]metric{
			"cpu_p50_ms":        {cpuP50, "ms"},
			"cpu_ms_per_op":     {cpuPerOp, "ms"},
			"setup_s":           {median(setupCPU), "s"},
			"retained_heap_mib": {heap, "MiB"},
			"ok_share":          {float64(chk.ok) / float64(n), "share"},
		},
	}, nil
}

// perLayer runs a third of the time end to end, for the runtime counters
// and the wall-clock median, which no bound gates but which shows time
// spent waiting rather than computing.
// For the rest, the same loop, an untraced replay and a traced replay take
// turns request by request, so the differences between them see one host
// speed.
func perLayer(w io.Writer, s *stream, dur time.Duration, spansPath string) (*result, error) {
	l, err := startLoop(s, warmup[s.name])
	if err != nil {
		return nil, err
	}
	t := l.t
	defer t.mem.free()
	err = l.run(dur / 3)
	var plain, traced *replayRun
	if err == nil {
		plain, err = startReplay(s, replayWarmup[s.name], false)
	}
	if err == nil {
		traced, err = startReplay(s, replayWarmup[s.name], true)
	}
	timedN := len(t.lat)
	for t0 := time.Now(); err == nil && time.Since(t0) < 2*dur/3; {
		if err = l.next(); err == nil {
			if err = plain.next(); err == nil {
				err = traced.next()
			}
		}
		if err != nil || !l.step() || plain.cur.done() || traced.cur.done() {
			break
		}
		if err = plain.step(); err == nil {
			err = traced.step()
		}
	}
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if len(t.lat) == timedN {
		return nil, fmt.Errorf("no paired request completed in %v", 2*dur/3)
	}
	if err := traced.tr.write(spansPath); err != nil {
		return nil, err
	}

	chk := check(s, t)
	if chk.first != "" {
		fmt.Fprintln(w, "first failure:", chk.first)
	}
	n := len(t.lat)
	wallP50 := median(append([]float64(nil), t.lat[:timedN]...))
	e2e := median(append([]float64(nil), t.lat[timedN:]...))
	plainMed, tracedMed := median(plain.perReq), median(traced.perReq)
	fmt.Fprintf(w, "end to end %d requests (wall-clock p50 %.4f ms), then %d in turn with the replays:  p50 %.4f ms;  untraced replay median %.4f ms;  traced replay median %.4f ms;  %d spans in %s\n",
		timedN, wallP50, n-timedN, e2e, plainMed, tracedMed, len(traced.tr.spans), spansPath)

	m := layerMetrics(w, traced)
	ops := float64(timedN)
	m["wall_p50_ms"] = metric{wallP50, "ms"}
	m["server.http_ms"] = metric{e2e - plainMed, "ms"}
	m["replay.request_ms"] = metric{plainMed, "ms"}
	m["trace.overhead_ms"] = metric{tracedMed - plainMed, "ms"}
	m["runtime.alloc_kib_per_op"] = metric{t.rt.allocBytes / 1024 / ops, "KiB"}
	m["runtime.gc_per_kop"] = metric{t.rt.gcCycles * 1000 / ops, "count"}
	m["runtime.gc_cpu_share"] = metric{t.rt.gcCPU / t.cpu.Seconds(), "share"}
	return &result{Correct: chk.ok == n, Attempted: n, Failed: n - chk.ok, Metrics: m}, nil
}

// layerMetrics turns the traced replay's spans into per-request self times
// and ratios.
func layerMetrics(w io.Writer, run *replayRun) map[string]metric {
	spans := run.tr.spans
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	self := map[string]float64{} // ms, summed over the timed requests
	whole := map[string]float64{}
	for i, sp := range spans {
		d := float64(sp.End-sp.Start) / 1e6
		whole[sp.Name] += d
		self[sp.Name] += d - float64(child[i])/1e6
	}
	reqs := float64(len(run.perReq))
	per := func(name string) float64 { return self[name] / reqs }
	splitParts := []string{"dataset.group", "belief.width", "bipartite.build", "core.oestimate", "recipe.search", "matching.estimate"}
	split := 0.0
	for _, name := range splitParts {
		split += whole[name]
	}
	rp := run.rp
	m := map[string]metric{
		"server.decode_ms":         {per("server.decode"), "ms"},
		"server.encode_ms":         {per("server.encode"), "ms"},
		"server.body_kib":          {float64(rp.bodyBytes) / 1024 / reqs, "KiB"},
		"dataset.table_ms":         {per("dataset.table"), "ms"},
		"dataset.digest_ms":        {per("dataset.digest"), "ms"},
		"dataset.group_ms":         {per("dataset.group"), "ms"},
		"dataset.clone_ms":         {per("dataset.clone"), "ms"},
		"riskcache.lookup_ms":      {per("riskcache.lookup"), "ms"},
		"riskcache.hit_share":      {ratio(rp.hits, rp.lookups), "share"},
		"belief.width_ms":          {per("belief.width"), "ms"},
		"belief.parse_ms":          {per("belief.parse"), "ms"},
		"belief.digest_ms":         {per("belief.digest"), "ms"},
		"bipartite.build_ms":       {per("bipartite.build"), "ms"},
		"core.oestimate_ms":        {per("core.oestimate"), "ms"},
		"recipe.assess_ms":         {whole["recipe.assess"] / reqs, "ms"},
		"recipe.search_ms":         {per("recipe.search"), "ms"},
		"recipe.search_share":      {ratio(rp.searched, rp.verdicts), "share"},
		"recipe.delta_ms":          {per("recipe.delta"), "ms"},
		"anonrisk.attack_ms":       {whole["anonrisk.attack"] / reqs, "ms"},
		"compute.split_ms":         {split / reqs, "ms"},
		"matching.estimate_ms":     {per("matching.estimate"), "ms"},
		"matching.ns_per_proposal": {nsPerProposal(whole["matching.estimate"], rp.proposals), "ns"},
	}

	// Rank the layers by self time: the split parts stand in for the
	// compute step's whole, whose own share is what the split leaves. The
	// two are timed apart, so host noise can make the split the larger.
	rank := map[string]float64{}
	for name, v := range self {
		switch name {
		case "request", "split", "recipe.search_setup":
		case "recipe.assess", "anonrisk.attack":
			rank[name+" (own)"] = max(0, whole[name]-split)
		default:
			rank[name] = v
		}
	}
	names := make([]string, 0, len(rank))
	for name := range rank {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return rank[names[i]] > rank[names[j]] })
	total := 0.0
	for _, name := range names {
		total += rank[name]
	}
	fmt.Fprintf(w, "layer self time per request (ms, share of the layers' sum):\n")
	for _, name := range names {
		if rank[name] <= 0 {
			continue
		}
		fmt.Fprintf(w, "  %-22s %10.4f  %5.1f%%\n", name, rank[name]/reqs, 100*rank[name]/total)
	}
	if len(names) > 0 {
		fmt.Fprintf(w, "largest layer: %s\n", names[0])
	}
	fmt.Fprintf(w, "riskcache.hit_share base: %d hits of %d lookups;  recipe.search_share base: %d of %d verdicts;  matching.ns_per_proposal base: %d proposals (runs × sweeps × n)\n",
		rp.hits, rp.lookups, rp.searched, rp.verdicts, rp.proposals)
	return m
}

// nsPerProposal divides the sampler's time by its proposals.
func nsPerProposal(ms float64, proposals int64) float64 {
	if proposals == 0 {
		return 0
	}
	return ms * 1e6 / float64(proposals)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-26s %14.6f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %t\n", res.Attempted, res.Failed, res.Correct)
}
