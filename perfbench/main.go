// Command perfbench is the repository's end-to-end training benchmark. It
// runs one workload (fig15, fedround or wire; see workloads.go) for a given
// seed, repeating whole passes for --seconds, checks that every pass produced
// the same outputs, and prints the end-to-end metrics as medians over the
// passes (a pass during which the hypervisor stole more than 4% of the host
// is set aside and run again, within a bounded time). With --trace 1 it
// then runs one more pass with the benchmark's tracing wrappers in place,
// checks that its outputs equal the untraced ones, prints the per-layer
// ledger and writes the spans under .bench_build/spans/.
//
//	bash perfbench/run.sh --workload fedround --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed check makes correct false and the
// exit code 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header stamps every printed record with the host and the code measured.
type header struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func main() {
	name := flag.String("workload", "", "fig15, fedround, wire, or all")
	seed := flag.Int64("seed", devSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measure whole passes for at least this long")
	trace := flag.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	spanDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced spans")
	flag.Parse()

	var run []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fig15, fedround, wire or all)\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	final := result{Correct: true, Metrics: map[string]metric{}}
	all := len(run) > 1
	for _, w := range run {
		h := makeHeader(w.name, *seed, *seconds)
		b := bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, hdr: h, out: out}
		// all runs every workload untraced and traced, prefixing the names.
		r := b.measure(*trace == 1 || all, *spanDir)
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		// A single traced run reports the per-layer metrics only, an
		// untraced one the end-to-end metrics; all prefixes both.
		if all {
			for k, v := range b.e2e {
				final.Metrics[w.name+"."+k] = v
			}
			for k, v := range b.layer {
				final.Metrics[w.name+"."+k] = v
			}
		} else if *trace == 1 {
			final.Metrics = b.layer
		} else {
			final.Metrics = b.e2e
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !final.Correct {
		os.Exit(1)
	}
}

// bench runs one workload.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	hdr     header
	out     io.Writer
	fails   []string
	// setAside counts passes whose timings were dropped for host steal.
	setAside int

	e2e, layer map[string]metric
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.fails = append(b.fails, msg)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.w.name, msg)
}

// passResult is one measured pass.
type passResult struct {
	setup, sample time.Duration
	stats         runStats
	rounds        []time.Duration
	ops           int
	out           outputs
}

// runPass prepares and runs one pass; tr is nil for an untraced pass.
func (b *bench) runPass(tr *tracer) (passResult, error) {
	runtime.GC()
	p, err := b.w.prepare(b.seed, tr)
	if err != nil {
		return passResult{}, fmt.Errorf("setup: %w", err)
	}
	defer p.close()
	var rec recorder
	var runID int32
	if tr != nil {
		obs.SetSink(tr)
		defer obs.SetSink(nil)
		runID = tr.startRun()
	}
	m := startMeter()
	out, err := p.run(tr, &rec)
	st := m.finish()
	if tr != nil {
		tr.endRun(runID)
	}
	if err != nil {
		return passResult{}, fmt.Errorf("run: %w", err)
	}
	out.Steps = st.Steps
	return passResult{setup: p.setup, sample: p.sample, stats: st, rounds: rec.rounds, ops: rec.ops, out: out}, nil
}

// record prints one pass as a JSON line stamped with the run header.
func (b *bench) record(i int, traced, stolen bool, pr passResult) {
	line, _ := json.Marshal(map[string]any{
		"header": b.hdr, "repeat": i, "traced": traced, "steal_above_limit": stolen,
		"setup_s": pr.setup.Seconds(), "run_s": pr.stats.Run.Seconds(), "cpu_s": pr.stats.CPU.Seconds(),
		"host_steal": pr.stats.Steal,
		"steps":      pr.out.Steps, "episodes": pr.out.Episodes, "uploads": pr.out.Uploads,
		"wire_bytes": pr.out.WireBytes, "final_reward": pr.out.FinalReward, "digest": pr.out.digest(),
	})
	fmt.Fprintln(b.out, string(line))
}

// sameOutputs checks that got has exactly the outputs of want.
func (b *bench) sameOutputs(what string, want, got outputs) {
	if want.digest() == got.digest() {
		return
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	b.fail("%s: outputs differ\n  want: %s\n  got:  %s", what, wj, gj)
}

// measure runs the untraced passes and, when traced, the traced pass,
// filling b.e2e and b.layer. The result carries no metrics.
func (b *bench) measure(traced bool, spanDir string) result {
	var res result
	b.e2e, b.layer = map[string]metric{}, map[string]metric{}
	// A pass during which the hypervisor gave much of the host to other
	// guests times the neighbours, not the program. Its outputs are still
	// checked, but its timings are set aside and another pass runs, for up
	// to half again --seconds; if too few quiet passes fit in that, the
	// least stolen of the rest fill in.
	var passes, noisy []passResult
	var first outputs
	budget := b.seconds + b.seconds/2
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= b.seconds && (len(passes) >= b.w.minPasses ||
			elapsed >= budget && len(passes)+len(noisy) >= b.w.minPasses) {
			break
		}
		pr, err := b.runPass(nil)
		res.Attempted += pr.ops + 1
		if err != nil {
			res.Failed++
			b.fail("pass %d: %v", i, err)
			break
		}
		stolen := pr.stats.Steal > maxSteal
		b.record(i, false, stolen, pr)
		if i == 0 {
			first = pr.out
		} else {
			b.sameOutputs(fmt.Sprintf("pass %d", i), first, pr.out)
		}
		if !pr.out.finite() {
			b.fail("pass %d: non-finite reward curve", i)
		}
		if stolen {
			noisy = append(noisy, pr)
		} else {
			passes = append(passes, pr)
		}
	}
	if short := b.w.minPasses - len(passes); short > 0 && len(noisy) > 0 {
		sort.Slice(noisy, func(i, j int) bool { return noisy[i].stats.Steal < noisy[j].stats.Steal })
		passes = append(passes, noisy[:min(short, len(noisy))]...)
		noisy = noisy[min(short, len(noisy)):]
	}
	b.setAside = len(noisy)
	// Setup is short next to a pass; set up again until there are enough
	// samples for a steady median.
	var setups []float64
	spent := 0.0
	for _, pr := range passes {
		setups = append(setups, pr.setup.Seconds())
		spent += pr.setup.Seconds()
	}
	for len(setups) < setupSamples || spent < setupSeconds && len(setups) < 100*setupSamples {
		runtime.GC()
		p, err := b.w.prepare(b.seed, nil)
		if err != nil {
			b.fail("setup: %v", err)
			break
		}
		p.close()
		setups = append(setups, p.setup.Seconds())
		spent += p.setup.Seconds()
	}
	b.endToEnd(passes, setups)
	if traced {
		b.traced(passes, spanDir)
	}
	res.Correct = len(b.fails) == 0
	return res
}

// A run measures setup_s over at least setupSamples set-ups and, when set-up
// is quick, over at least setupSeconds of them. A pass's timings are set
// aside when the host's steal share during it exceeds maxSteal.
const (
	setupSamples = 7
	setupSeconds = 0.5
	maxSteal     = 0.04
)

func (b *bench) endToEnd(passes []passResult, setups []float64) {
	var run, sps, cpu, alloc, peak, rounds []float64
	for _, pr := range passes {
		s := pr.stats
		run = append(run, s.Run.Seconds())
		sps = append(sps, float64(pr.out.Steps)/s.Run.Seconds())
		cpu = append(cpu, s.CPU.Seconds())
		alloc = append(alloc, float64(s.Alloc)/1e6)
		peak = append(peak, float64(s.PeakHeap)/1e6)
		for _, d := range pr.rounds {
			rounds = append(rounds, float64(d)/1e6)
		}
	}
	out := passes[0].out
	okFrac := 1.0
	if out.Attempts > 0 {
		okFrac = 1 - float64(out.Failures)/float64(out.Attempts)
	}
	for k, v := range map[string]metric{
		"setup_s":       {median(setups), "s"},
		"run_s":         {median(run), "s"},
		"steps_per_s":   {median(sps), "1/s"},
		"round_p50_ms":  {median(rounds), "ms"},
		"round_tail_ms": {percentile(rounds, b.w.tail), "ms"},
		"cpu_s":         {median(cpu), "s"},
		"alloc_mb":      {median(alloc), "MB"},
		"peak_heap_mb":  {median(peak), "MB"},
		"wire_mb":       {float64(out.WireBytes) / 1e6, "MB"},
		"ok_frac":       {okFrac, "fraction"},
	} {
		b.e2e[k] = v
		if !finite(v.Value) {
			b.fail("%s is not finite", k)
		}
	}
	fmt.Fprintf(b.out, "# %s seed %d: %d passes (%d more set aside for host steal), %d rounds; round_tail_ms is p%g with %d samples beyond it\n",
		b.w.name, b.seed, len(passes), b.setAside, len(rounds), b.w.tail*100, beyond(len(rounds), b.w.tail))
	printMetrics(b.out, b.e2e)
}

// traced runs the traced pass, checks it against the untraced passes (and,
// for fig15, against core.Train itself), and fills the per-layer metrics.
func (b *bench) traced(passes []passResult, spanDir string) {
	tr := newTracer()
	pr, err := b.runPass(tr)
	if err != nil {
		b.fail("traced pass: %v", err)
		return
	}
	b.record(len(passes)+b.setAside, true, false, pr)
	b.sameOutputs("traced pass", passes[0].out, pr.out)
	if b.w.reference != nil {
		ref, err := b.w.reference(b.seed)
		if err != nil {
			b.fail("reference: %v", err)
		} else {
			got := outputs{Curves: pr.out.Curves, Globals: pr.out.Globals}
			b.sameOutputs("core.Train reference", ref, got)
		}
	}
	var untraced []float64
	for _, p := range passes {
		untraced = append(untraced, p.stats.Run.Seconds())
	}
	b.layers(tr, pr, median(untraced))
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.write(path); err != nil {
		b.fail("writing spans: %v", err)
	} else {
		fmt.Fprintf(b.out, "# spans written to %s\n", path)
	}
}

// layers turns a traced pass's ledger into the per-layer metrics.
func (b *bench) layers(tr *tracer, pr passResult, untracedRun float64) {
	l := tr.ledger()
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	var observeNs, stepNs, steps int64
	unmatched := 0
	for _, ct := range tr.all {
		observeNs += ct.observeNs
		stepNs += ct.stepNs
		steps += ct.steps
		unmatched += ct.unmatched
	}
	// Containers hold no work of their own; their self time is what no
	// layer claims.
	unattributed := l.self[spRun] + l.self[spRound] + l.self[spWindow] + l.self[spEpisode]
	parts := map[string]int64{
		"cloudsim.reset_s":    l.dur[spReset],
		"cloudsim.observe_s":  observeNs,
		"cloudsim.step_s":     stepNs,
		"rl.infer_s":          l.self[spRollout],
		"rl.update_s":         l.dur[spUpdate],
		"rl.independent_s":    l.self[spIndependent],
		"fed.client_wait_s":   l.dur[spWait],
		"fed.segment_s":       l.self[spSegment],
		"fed.upload_s":        l.dur[spUpload],
		"fed.download_s":      l.dur[spDownload],
		"fedcore.aggregate_s": l.dur[spAggregate],
		"fed.server_other_s":  l.self[spServer],
		"fednet.rpc_s":        l.self[spRequest],
	}
	var sum int64
	for _, v := range parts {
		sum += v
	}
	// The leaves tile the ledger: the root spans' durations are exactly the
	// sum of the self times under them.
	if sum+unattributed != l.total {
		b.fail("ledger does not reconcile: parts %d ns + unattributed %d ns != total %d ns", sum, unattributed, l.total)
	}
	if l.overlap < 0 {
		b.fail("a span's children outlast it by %d ns", -l.overlap)
	}
	if unmatched > 0 {
		b.fail("%d episodes began before the previous update ended", unmatched)
	}
	if observeNs+stepNs != l.covered {
		b.fail("env time outside rollouts: %d ns", observeNs+stepNs-l.covered)
	}
	if steps != pr.out.Steps || l.transitions != pr.out.Steps {
		b.fail("traced env saw %d steps (%d in rollouts), the program counted %d", steps, l.transitions, pr.out.Steps)
	}
	if int64(l.count[spEpisode]) != pr.out.Episodes {
		b.fail("traced %d episodes, clients recorded %d", l.count[spEpisode], pr.out.Episodes)
	}

	failedFrac := 0.0
	if pr.out.Attempts > 0 {
		failedFrac = float64(pr.out.Failures) / float64(pr.out.Attempts)
	}
	layer := map[string]metric{
		"workload.sample_s":       {pr.sample.Seconds(), "s"},
		"cloudsim.steps":          {float64(steps), "count"},
		"rl.rollout_s":            {sec(l.dur[spRollout]), "s"},
		"rl.episodes":             {float64(l.count[spEpisode]), "count"},
		"rl.transitions":          {float64(l.transitions), "count"},
		"fed.server_s":            {sec(l.dur[spServer]), "s"},
		"fed.uploads":             {float64(l.count[spUpload]), "count"},
		"fed.downloads":           {float64(l.count[spDownload]), "count"},
		"fedcore.aggregations":    {float64(l.count[spAggregate]), "count"},
		"fednet.request_s":        {sec(l.dur[spRequest]), "s"},
		"fednet.requests":         {float64(l.count[spRequest]), "count"},
		"fednet.retries":          {float64(pr.out.Retries), "count"},
		"fednet.stale_drops":      {float64(pr.out.StaleDrops), "count"},
		"fednet.dup_drops":        {float64(pr.out.DupDrops), "count"},
		"fed.failed_frac":         {failedFrac, "fraction"},
		"final_reward":            {pr.out.FinalReward, "reward"},
		"runtime.gc_cycles":       {float64(pr.stats.GCCycles), "count"},
		"runtime.gc_pause_s":      {pr.stats.GCPause.Seconds(), "s"},
		"ledger.run_s":            {pr.stats.Run.Seconds(), "s"},
		"ledger.cpu_s":            {pr.stats.CPU.Seconds(), "s"},
		"ledger.total_s":          {sec(l.total), "s"},
		"ledger.unattributed_s":   {sec(unattributed), "s"},
		"ledger.trace_overhead_s": {pr.stats.Run.Seconds() - untracedRun, "s"},
	}
	for k, v := range parts {
		layer[k] = metric{sec(v), "s"}
	}
	for k, v := range layer {
		if !finite(v.Value) {
			b.fail("%s is not finite", k)
		}
	}
	b.layer = layer
	printMetrics(b.out, layer)
}

// printMetrics prints a metric table as comment lines, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %-26s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// makeHeader describes the host and the code. The revision comes from the
// build's VCS stamp when the benchmark was built in a git checkout; the
// source digest covers the checkout's Go, module, JSON and shell files in
// any case.
func makeHeader(workload string, seed int64, seconds int) header {
	h := header{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Source:     sourceDigest("."),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".sh":
		default:
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
