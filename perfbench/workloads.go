package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/fednet"
	"repro/internal/stats"
)

// devSeed is the seed the workloads were tuned on. Seed 7 was not looked at
// while tuning: it is the held-out seed to confirm a claimed gain on.
const devSeed = 1

// workload is one benchmark input. Each is a closed loop driven from one
// process: the benchmark starts a round (or request) only after the previous
// one finished, and every client waits for its own results.
type workload struct {
	name string
	// minPasses is the fewest passes a run makes, however short --seconds;
	// tail is the round-latency percentile reported as round_tail_ms, with
	// at least ten samples beyond it at minPasses.
	minPasses int
	tail      float64
	prepare   func(seed int64, tr *tracer) (*pass, error)
	// reference, when set, trains the workload through the program's own
	// entry point, for the check that the traced assembly is the same
	// program.
	reference func(seed int64) (outputs, error)
}

// pass is one prepared repetition of a workload.
type pass struct {
	setup  time.Duration // sampling plus building clients, federation, server
	sample time.Duration // the sampling part of setup
	run    func(tr *tracer, rec *recorder) (outputs, error)
	close  func()
}

// recorder collects the per-operation latencies of a run.
type recorder struct {
	rounds []time.Duration
	ops    int
}

// namedCurve is one algorithm's across-client mean reward curve.
type namedCurve struct {
	Name  string
	Curve []float64
}

// outputs are a pass's deterministic results. The same seed must give the
// same outputs in every pass, traced or not.
type outputs struct {
	Curves      []namedCurve
	Globals     []string // SHA-256 of each committed global model
	Steps       int64    // env transitions, from the program's counter
	Episodes    int64
	Uploads     int64
	Downloads   int64
	WireBytes   int64
	FinalReward float64
	// Attempts and Failures give ok_frac: transport operations attempted,
	// and those retried, dropped or rejected.
	Attempts, Failures int64
	Retries            int64
	StaleDrops         int64
	DupDrops           int64
	Commits            int
}

func (o outputs) digest() string {
	d := newDigest()
	for _, c := range o.Curves {
		d.text(c.Name)
		d.floats(c.Curve...)
	}
	for _, g := range o.Globals {
		d.text(g)
	}
	d.floats(float64(o.Steps), float64(o.Episodes), float64(o.Uploads), float64(o.Downloads),
		float64(o.WireBytes), o.FinalReward, float64(o.Attempts), float64(o.Failures),
		float64(o.Retries), float64(o.StaleDrops), float64(o.DupDrops), float64(o.Commits))
	return d.sum()
}

func (o outputs) finite() bool {
	for _, c := range o.Curves {
		if !finite(c.Curve...) {
			return false
		}
	}
	return finite(o.FinalReward)
}

// tailMean is the mean of a curve's last quarter (at least one episode), the
// convergence figure BenchmarkFig15_Convergence reports.
func tailMean(curve []float64) float64 {
	n := len(curve) / 4
	if n < 1 {
		n = 1
	}
	return stats.Mean(curve[len(curve)-n:])
}

// sizes scale a workload; the benchmark runs full, the tests tiny.
type sizes struct {
	clients, tasks, episodes, commEvery, stepCap, k, requests int
}

var (
	fig15Full    = sizes{clients: 10, tasks: 60, episodes: 12, commEvery: 3, stepCap: 300}
	fig15Tiny    = sizes{clients: 10, tasks: 10, episodes: 2, commEvery: 1, stepCap: 10}
	fedroundFull = sizes{clients: 64, tasks: 10, episodes: 40, commEvery: 1, stepCap: 10, k: 32}
	fedroundTiny = sizes{clients: 8, tasks: 10, episodes: 3, commEvery: 1, stepCap: 10, k: 4}
	wireFull     = sizes{clients: 2, tasks: 40, stepCap: 10, requests: 500}
	wireTiny     = sizes{clients: 2, tasks: 40, stepCap: 10, requests: 24}
)

// workloads are the benchmark's workloads, in the order --workload all runs
// them.
var workloads = []workload{fig15(fig15Full), fedround(fedroundFull), wire(wireFull)}

// experiment is the scaled-down Table-3 experiment at the given sizes:
// Table-3 specs cycled to sz.clients at quarter capacity.
func experiment(seed int64, sz sizes) core.ExperimentConfig {
	cfg := core.DefaultExperiment(seed)
	table := core.ScaleSpecs(core.Table3Specs(), 4)
	cfg.Specs = make([]core.ClientSpec, sz.clients)
	for i := range cfg.Specs {
		s := table[i%len(table)]
		if i >= len(table) {
			s.Name = fmt.Sprintf("%s.%d", s.Name, i/len(table))
		}
		cfg.Specs[i] = s
	}
	cfg.TasksPerClient = sz.tasks
	cfg.Episodes = sz.episodes
	cfg.CommEvery = sz.commEvery
	cfg.EpisodeStepCap = sz.stepCap
	cfg.K = sz.k
	return cfg
}

// fig15 is the Fig 15 harness, BenchmarkFig15_Convergence's workload: the
// ten Table-3 clients at quarter capacity, 60 tasks, 12 episodes with a
// 300-step cap, communication every 3 episodes, parallel clients, identity
// codec, and all four algorithms (PFRL-DM, MFPO, FedAvg, PPO) back to back.
//
// Why: it is the ROADMAP's reference workload. It stresses rl: the PPO update
// on 300-step buffers (matmul, tanh, Adam, clipping) is about 90% of summed
// phase time. It nearly bypasses the federation (about 1%), so an rl or
// tensor change shows here and a fedcore change should not.
func fig15(sz sizes) workload {
	return workload{
		name:      "fig15",
		minPasses: 4,
		tail:      0.75,
		prepare: func(seed int64, tr *tracer) (*pass, error) {
			return prepareJobs(experiment(seed, sz), core.AllAlgorithms(), tr)
		},
		reference: func(seed int64) (outputs, error) {
			cfg := experiment(seed, sz)
			var out outputs
			for _, alg := range core.AllAlgorithms() {
				r, err := core.Train(alg, cfg)
				if err != nil {
					return out, fmt.Errorf("core.Train %v: %w", alg, err)
				}
				out.Curves = append(out.Curves, namedCurve{alg.String(), r.MeanCurve})
				if r.Federation != nil {
					out.Globals = append(out.Globals, payloadDigest(r.Federation.Global))
				}
			}
			return out, nil
		},
	}
}

// fedround is the federation-heavy shape: 64 clients (Table-3 specs cycled,
// quarter capacity) running PFRL-DM with K=32 (the paper's N/2), one episode
// per round over 10 tasks with a 10-step cap, 40 rounds, identity codec,
// through the in-process fed.Federation path core.Train uses.
//
// Why: it stresses fedcore, attn and fed. Attention weights, the weighted
// mix, and delivery with the α refresh and critic-loss probes take about a
// fifth of the CPU, and the tiny buffers make the fixed per-update cost
// (Adam) dominate rl rather than matmul. It bypasses the wire: no RPC, no
// gob, no lossy codec.
func fedround(sz sizes) workload {
	return workload{
		name:      "fedround",
		minPasses: 2,
		tail:      0.85,
		prepare: func(seed int64, tr *tracer) (*pass, error) {
			return prepareJobs(experiment(seed, sz), []core.Algorithm{core.AlgPFRLDM}, tr)
		},
	}
}

// job is one algorithm's training, assembled from the same public pieces
// core.Train uses, so the tracer can be threaded through them.
type job struct {
	alg      core.Algorithm
	clients  []*fed.Client
	fed      *fed.Federation // nil for PPO, which trains independently
	rounds   int
	episodes int
	traces   []*clientTrace
}

// prepareJobs samples data and builds every algorithm's clients and
// federation; that is the pass's setup. The run then trains them in order.
func prepareJobs(cfg core.ExperimentConfig, algs []core.Algorithm, tr *tracer) (*pass, error) {
	start := time.Now()
	p := &pass{close: func() {}}
	if tr != nil {
		tr.windows = true // clients train in goroutines of their own
	}
	jobs := make([]*job, 0, len(algs))
	for _, alg := range algs {
		j, sample, err := assemble(alg, cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", alg, err)
		}
		p.sample += sample
		jobs = append(jobs, j)
	}
	p.setup = time.Since(start)
	p.run = func(tr *tracer, rec *recorder) (outputs, error) {
		var out outputs
		for _, j := range jobs {
			if err := j.train(tr, rec); err != nil {
				return out, fmt.Errorf("%v: %w", j.alg, err)
			}
			j.collect(&out)
		}
		return out, nil
	}
	return p, nil
}

// assemble mirrors core.Train's construction for one algorithm.
func assemble(alg core.Algorithm, cfg core.ExperimentConfig, tr *tracer) (*job, time.Duration, error) {
	t0 := time.Now()
	data, err := core.SampleClientData(cfg)
	sample := time.Since(t0)
	if err != nil {
		return nil, sample, err
	}
	clients, err := core.BuildClients(alg, cfg, data)
	if err != nil {
		return nil, sample, err
	}
	j := &job{alg: alg, clients: clients}
	if tr != nil {
		j.traces = tr.attach(clients)
	}
	if alg == core.AlgPPO {
		j.episodes = cfg.Episodes
		return j, sample, nil
	}
	if cfg.Episodes%cfg.CommEvery != 0 {
		return nil, sample, fmt.Errorf("episodes %d not a multiple of comm-every %d", cfg.Episodes, cfg.CommEvery)
	}
	var transport fed.Transport
	var agg fed.Aggregator
	switch alg {
	case core.AlgFedAvg:
		transport, agg = fed.ActorCriticTransport{}, fed.FedAvg{}
	case core.AlgMFPO:
		beta := cfg.MFPOBeta
		if beta == 0 {
			beta = 0.5
		}
		transport, agg = fed.ActorCriticTransport{}, fed.NewMomentum(beta)
	case core.AlgPFRLDM:
		transport, agg = fed.PublicCriticTransport{}, fed.NewAttention(cfg.Seed)
	default:
		return nil, sample, fmt.Errorf("algorithm %v not benchmarked", alg)
	}
	k := cfg.K
	if k <= 0 {
		k = len(clients)
		if alg == core.AlgPFRLDM {
			k = fedcore.DefaultK(len(clients))
		}
	}
	if tr != nil {
		transport = &tracedTransport{inner: transport, tr: tr}
		if agg, err = traceAggregator(agg, tr); err != nil {
			return nil, sample, err
		}
	}
	f, err := fed.New(clients, transport, agg, fed.Options{
		K: k, CommEvery: cfg.CommEvery, Seed: cfg.Seed, Parallel: cfg.Parallel, Codec: cfg.Codec,
	})
	if err != nil {
		return nil, sample, err
	}
	j.fed, j.rounds = f, cfg.Episodes/cfg.CommEvery
	return j, sample, nil
}

// train runs the job: RunRound per round (what RunEpisodes does when the
// episodes divide evenly), or PPO's parallel independent training.
func (j *job) train(tr *tracer, rec *recorder) error {
	if tr != nil {
		tr.use(j.traces)
	}
	if j.fed == nil {
		var id int32
		if tr != nil {
			id = tr.beginIndependent()
		}
		var wg sync.WaitGroup
		for _, c := range j.clients {
			wg.Add(1)
			go func(c *fed.Client) {
				defer wg.Done()
				c.TrainEpisodes(j.episodes)
			}(c)
		}
		wg.Wait()
		if tr != nil {
			tr.endIndependent(id)
		}
		rec.ops++
		return nil
	}
	for r := 0; r < j.rounds; r++ {
		if tr != nil {
			tr.beginRound(int32(r))
		}
		t0 := time.Now()
		err := j.fed.RunRound()
		rec.rounds = append(rec.rounds, time.Since(t0))
		rec.ops++
		if tr != nil {
			tr.endRound()
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return nil
}

func (j *job) collect(out *outputs) {
	curve := fed.MeanRewardCurve(j.clients)
	out.Curves = append(out.Curves, namedCurve{j.alg.String(), curve})
	for _, c := range j.clients {
		out.Episodes += int64(len(c.Rewards))
	}
	if j.alg == core.AlgPFRLDM {
		out.FinalReward = tailMean(curve)
	}
	if j.fed == nil {
		return
	}
	out.Globals = append(out.Globals, payloadDigest(j.fed.Global))
	comm := j.fed.Comm()
	if dim := int64(len(j.fed.Global)); dim > 0 {
		out.Uploads += comm.UploadScalars / dim
		out.Downloads += comm.DownloadScalars / dim
	}
	out.WireBytes += comm.Bytes()
	for _, rep := range j.fed.Reports {
		out.Attempts += int64(rep.Selected + rep.Expected)
		out.Failures += int64(rep.UploadDrops + rep.DownloadDrops + rep.Arrived - rep.Participants)
	}
	out.Commits += j.fed.Rounds
}

// wire is PFRL-DM over loopback fednet: an async buffered server (K=2, B=3,
// staleness bound 1) with the i8+delta codec, and two remote clients, one
// connection each, whose transports run the swarm-smoke fault spec
// (drop=0.08,dup=0.08,corrupt=0.05). A seeded virtual-time schedule picks
// which client goes next; each request is RunRounds(1, 1) on one episode
// cut at 10 steps (40 tasks, so every episode is a truncated one of equal
// length), with one request in flight. 500 requests per pass, then a flush
// and a final fetch per client. With B=3 a third of the requests carry a
// commit (the attention aggregation), so the median is a request without one
// and the tail, p95, one with it; with B=2 half did, and the median flipped
// between the two from seed to seed. p99, the highest percentile with ten
// samples beyond it, moved by a third between runs whenever the hypervisor
// stole CPU time.
//
// Why: it is the only workload that crosses the wire. It stresses fednet
// (net/rpc, gob framing, retries and backoff), the async engine and the
// lossy codec, and its faults make retries and drops non-zero by design. It
// bypasses the sync round engine, the segment barrier and the identity tier
// that fedround uses.
func wire(sz sizes) workload {
	return workload{
		name:      "wire",
		minPasses: 3,
		tail:      0.95,
		prepare: func(seed int64, tr *tracer) (*pass, error) {
			return prepareWire(seed, sz, tr)
		},
	}
}

// wireFaults is the swarm-smoke fault spec; its seed is set per client.
var wireFaults = fed.FaultSpec{Drop: 0.08, Duplicate: 0.08, Corrupt: 0.05}

func prepareWire(seed int64, sz sizes, tr *tracer) (*pass, error) {
	start := time.Now()
	cfg := experiment(seed, sz)
	data, err := core.SampleClientData(cfg)
	sample := time.Since(start)
	if err != nil {
		return nil, err
	}
	clients, err := core.BuildClients(core.AlgPFRLDM, cfg, data)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.use(tr.attach(clients))
		tr.serverSide = true
	}
	transport := fed.PublicCriticTransport{}
	initial, err := transport.Upload(clients[0])
	if err != nil {
		return nil, err
	}
	var agg fed.Aggregator = fed.NewAttention(seed)
	if tr != nil {
		if agg, err = traceAggregator(agg, tr); err != nil {
			return nil, err
		}
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients:        len(clients),
		K:              len(clients),
		Seed:           seed,
		InitialGlobal:  initial,
		Aggregator:     agg,
		Async:          true,
		StalenessBound: 1,
		Buffer:         len(clients) + 1,
		Codec:          fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true},
	})
	if err != nil {
		return nil, err
	}
	rcs := make([]*fednet.RemoteClient, 0, len(clients))
	closeAll := func() {
		for _, rc := range rcs {
			rc.Close()
		}
		srv.Close()
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		closeAll()
		return nil, err
	}
	for i, c := range clients {
		// Dial with the clean transport, as RunSwarm does, so the join
		// install cannot draw a fault; the injector goes in for the run.
		// Backoff is a microsecond: a request's latency is the program's
		// retry path, not a configured sleep.
		rc, err := fednet.DialOptions(addr, c, transport, fednet.Options{
			Retries:   8,
			RetryBase: time.Microsecond,
			RetryMax:  4 * time.Microsecond,
			Seed:      seed + int64(i)*7919,
		})
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		rcs = append(rcs, rc)
		spec := wireFaults
		spec.Seed = seed + int64(i)*104729
		var t fed.Transport = fed.NewFaultyTransport(transport, spec)
		if tr != nil {
			t = &tracedTransport{inner: t, tr: tr}
		}
		rc.Transport = t
	}
	p := &pass{setup: time.Since(start), sample: sample, close: closeAll}
	p.run = func(tr *tracer, rec *recorder) (outputs, error) {
		return driveWire(seed, sz.requests, srv, rcs, clients, tr, rec)
	}
	return p, nil
}

// wireEvent is one scheduled client request in virtual time.
type wireEvent struct {
	at int64
	id int
}

type wireQueue []wireEvent

func (q wireQueue) Len() int { return len(q) }
func (q wireQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].id < q[j].id
}
func (q wireQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *wireQueue) Push(x any)   { *q = append(*q, x.(wireEvent)) }
func (q *wireQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// driveWire sends the requests one at a time in seeded virtual-time order.
func driveWire(seed int64, requests int, srv *fednet.Server, rcs []*fednet.RemoteClient, clients []*fed.Client, tr *tracer, rec *recorder) (outputs, error) {
	var out outputs
	pacing := make([]*rand.Rand, len(rcs))
	q := make(wireQueue, 0, len(rcs))
	for i := range rcs {
		pacing[i] = rand.New(rand.NewSource(seed + int64(i)*15485863))
		q = append(q, wireEvent{at: 1 + pacing[i].Int63n(97), id: i})
	}
	heap.Init(&q)
	for i := 0; i < requests; i++ {
		ev := heap.Pop(&q).(wireEvent)
		var prev int32
		if tr != nil {
			prev = tr.beginRequest(int32(i), int32(ev.id))
		}
		t0 := time.Now()
		err := rcs[ev.id].RunRounds(1, 1)
		rec.rounds = append(rec.rounds, time.Since(t0))
		rec.ops++
		if tr != nil {
			tr.endRequest(prev)
		}
		if err != nil {
			return out, fmt.Errorf("request %d (client %d): %w", i, ev.id, err)
		}
		ev.at += 1 + pacing[ev.id].Int63n(97)
		heap.Push(&q, ev)
	}
	srv.Flush()
	for _, rc := range rcs {
		if _, err := rc.Fetch(); err != nil {
			return out, fmt.Errorf("final fetch %d: %w", rc.ID(), err)
		}
		out.Retries += int64(rc.Stats().Retries)
	}
	global := srv.Global()
	out.Globals = []string{payloadDigest(global)}
	comm := srv.Comm()
	if dim := int64(len(global)); dim > 0 {
		out.Uploads = comm.UploadScalars / dim
		out.Downloads = comm.DownloadScalars / dim
	}
	out.WireBytes = comm.Bytes()
	out.Commits = srv.Rounds()
	for _, rep := range srv.Reports() {
		out.StaleDrops += int64(rep.StaleDrops)
		out.DupDrops += int64(rep.DupDrops)
	}
	for _, c := range clients {
		out.Episodes += int64(len(c.Rewards))
	}
	curve := fed.MeanRewardCurve(clients)
	out.Curves = []namedCurve{{"PFRL-DM", curve}}
	if len(curve) > 0 {
		out.FinalReward = curve[len(curve)-1]
	}
	// Every request makes a fetch step and a sync step, plus the final
	// fetches; each retry is one more attempt.
	out.Attempts = int64(2*requests+len(rcs)) + out.Retries
	out.Failures = out.Retries + out.StaleDrops + out.DupDrops
	return out, nil
}
