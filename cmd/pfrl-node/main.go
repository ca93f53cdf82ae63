// Command pfrl-node runs one node of a networked PFRL-DM federation: either
// the aggregation server or a training client. Clients exchange only public
// critic parameters with the server; workload data never leaves a node.
//
// Demo on one machine (three terminals):
//
//	pfrl-node -mode server -clients 2 -addr 127.0.0.1:7000
//	pfrl-node -mode client -addr 127.0.0.1:7000 -dataset google -seed 1
//	pfrl-node -mode client -addr 127.0.0.1:7000 -dataset hpc-hf  -seed 2
//
// Or self-contained: -mode demo spawns a server plus N in-process clients
// connected over localhost TCP.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/fednet"
	"repro/internal/rl"
	"repro/internal/workload"
)

// Scalable-environment knobs, shared by every mode's env construction (see
// federationEnv). They must match across the federation: the policy
// network's input width and action count derive from them.
var (
	topkFlag = flag.Int("topk", 0,
		"scalable observation: top-k candidate VM slots (0 = per-VM observation)")
	utilBucketsFlag = flag.Int("util-buckets", 0,
		"scalable observation: aggregate utilization histogram buckets (requires -topk)")
	oversubFlag = flag.Float64("oversub", 0,
		"vCPU/memory oversubscription ratio (0 or 1 = off)")
	workloadSpecFlag = flag.String("workload-spec", "",
		"client/demo/swarm: draw tasks from this declarative workload spec JSON instead of the -dataset builtin")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pfrl-node: ")
	var (
		mode    = flag.String("mode", "demo", "server | client | demo | swarm")
		addr    = flag.String("addr", "127.0.0.1:0", "server address (server: bind; client: dial)")
		clients = flag.Int("clients", 4, "server/demo: expected number of clients")
		k       = flag.Int("k", 0, "participants per round (0 = N/2)")
		rounds  = flag.Int("rounds", 6, "aggregation rounds")
		comm    = flag.Int("comm", 5, "episodes per round")
		tasks   = flag.Int("tasks", 80, "tasks per client")
		dataset = flag.String("dataset", "google", "client: workload dataset name")
		seed    = flag.Int64("seed", 1, "node seed")
		// Fault-tolerance knobs.
		roundTimeout = flag.Duration("round-timeout", 0,
			"server/demo: aggregate with whoever arrived after this much waiting (0 = strict full barrier)")
		retries = flag.Int("retries", 3,
			"client/demo: retry attempts per sync step (exponential backoff, seeded jitter)")
		rpcTimeout = flag.Duration("rpc-timeout", 0,
			"client/demo: per-RPC deadline; set above -round-timeout plus a training segment (0 = none)")
		faultSpec = flag.String("fault-spec", "",
			"client/demo: injected transport faults, e.g. drop=0.1,delay=0.05:20ms,dup=0.02,corrupt=0.01,seed=7")
		rejoin = flag.Int("rejoin", -1,
			"client: reclaim this client id after a restart instead of registering anew")
		// Asynchronous-federation knobs.
		async = flag.Bool("async", false,
			"server/demo/swarm: buffered asynchronous aggregation instead of the round barrier")
		stalenessBound = flag.Int("staleness-bound", -1,
			"async: drop deltas staler than this many rounds (-1 = unbounded, 0 = fresh only)")
		buffer = flag.Int("buffer", 0,
			"async: commit an aggregation round every B accepted arrivals (0 = K)")
		// Data-plane knobs. The server owns the codec config: clients adopt
		// it from the join reply, so only server/demo/swarm modes read these.
		codecTier = flag.String("codec", "identity",
			"server/demo/swarm: payload quantization tier (identity | f32 | i16 | i8)")
		codecDelta = flag.Bool("codec-delta", false,
			"server/demo/swarm: delta-encode uplink payloads against the last delivered global")
		// Observability knobs.
		metricsAddr = flag.String("metrics-addr", "",
			"serve Prometheus /metrics and /debug/pprof/ on this address (empty = disabled)")
		events = flag.String("events", "",
			"append JSONL training/federation events to this file (empty = disabled)")
	)
	flag.Parse()

	tier, err := fedcore.ParseTier(*codecTier)
	if err != nil {
		log.Fatal(err)
	}
	codec := fedcore.CodecConfig{Tier: tier, Delta: *codecDelta}

	if bound, err := startMetrics(*metricsAddr); err != nil {
		log.Fatal(err)
	} else if bound != "" {
		fmt.Printf("metrics on http://%s/metrics (profiles on /debug/pprof/)\n", bound)
	}
	if sink, err := openEvents(*events); err != nil {
		log.Fatal(err)
	} else if sink != nil {
		defer func() {
			if err := sink.Err(); err != nil {
				log.Printf("events: %v", err)
			}
		}()
	}

	faults, err := fed.ParseFaultSpec(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	opts := fednet.Options{
		CallTimeout: *rpcTimeout,
		Retries:     *retries,
		Seed:        *seed,
	}
	if *rejoin >= 0 {
		opts.Rejoin, opts.RejoinID = true, *rejoin
	}

	acfg := asyncConfig{on: *async, stalenessBound: *stalenessBound, buffer: *buffer}

	switch *mode {
	case "server":
		err = runServer(*addr, *clients, *k, *seed, *roundTimeout, acfg, codec)
	case "client":
		err = runClient(*addr, *dataset, *tasks, *rounds, *comm, *seed, opts, faults)
	case "demo":
		err = runDemo(*clients, *k, *rounds, *comm, *tasks, *seed, *roundTimeout, opts, faults, acfg, codec)
	case "swarm":
		err = runSwarm(*clients, *k, *rounds, *comm, *tasks, *seed, *stalenessBound, *buffer, *retries, faults, codec)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// federationEnv builds the shared environment shape every node must agree
// on (the federation-wide caps of §4.1). A real deployment would negotiate
// this; here both sides derive it from the scaled Table-3 specs.
func federationEnv(spec core.ClientSpec) cloudsim.Config {
	caps := core.CapsFor(core.ScaleSpecs(core.Table3Specs(), 4))
	cfg := caps.EnvConfig(spec)
	cfg.TopK = *topkFlag
	cfg.UtilBuckets = *utilBucketsFlag
	cfg.Oversub = *oversubFlag
	return cfg
}

func specFor(dataset string, seed int64) (core.ClientSpec, error) {
	name := strings.ToLower(dataset)
	for _, s := range core.ScaleSpecs(core.Table3Specs(), 4) {
		if strings.ToLower(s.Dataset.String()) == name {
			s.Name = fmt.Sprintf("%s-node%d", s.Dataset, seed)
			return s, nil
		}
	}
	return core.ClientSpec{}, fmt.Errorf("unknown dataset %q (try: google, alibaba-2017, hpc-hf, kvm-2019, k8s, ...)", dataset)
}

func buildLocal(spec core.ClientSpec, tasks int, seed int64) (*fed.Client, error) {
	envCfg := federationEnv(spec)
	envCfg.MaxSteps = 5 * tasks
	rng := rand.New(rand.NewSource(seed))
	ts, err := localTasks(spec, tasks, rng)
	if err != nil {
		return nil, err
	}
	agent := rl.NewDualCriticPPO(
		rl.DefaultConfig(cloudsim.StateDim(envCfg), cloudsim.NumActions(envCfg)),
		rand.New(rand.NewSource(seed*7919+13)))
	return fed.NewClient(int(seed), spec.Name, envCfg, ts, agent)
}

// localTasks draws a node's task set: from the -workload-spec file when
// given, otherwise from the client's builtin dataset model.
func localTasks(spec core.ClientSpec, tasks int, rng *rand.Rand) ([]workload.Task, error) {
	if *workloadSpecFlag == "" {
		return cloudsim.ClampTasks(workload.SampleDataset(spec.Dataset, rng, tasks), spec.VMs), nil
	}
	ws, err := workload.LoadSpec(*workloadSpecFlag)
	if err != nil {
		return nil, err
	}
	comp, err := ws.Compile()
	if err != nil {
		return nil, err
	}
	return cloudsim.ClampTasks(comp.Sample(rng, tasks), spec.VMs), nil
}

// asyncConfig carries the asynchronous-federation flags into each mode.
type asyncConfig struct {
	on             bool
	stalenessBound int
	buffer         int
}

func runServer(addr string, clients, k int, seed int64, roundTimeout time.Duration, acfg asyncConfig, codec fedcore.CodecConfig) error {
	// The server needs ψ_G^(0) with the federation's network shape.
	spec, err := specFor("google", seed)
	if err != nil {
		return err
	}
	ref, err := buildLocal(spec, 10, seed)
	if err != nil {
		return err
	}
	transport := fed.PublicCriticTransport{}
	initial, err := transport.Upload(ref)
	if err != nil {
		return err
	}
	if k <= 0 {
		k = fedcore.DefaultK(clients)
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients: clients, K: k, Seed: seed,
		InitialGlobal:  initial,
		Aggregator:     fed.NewAttention(seed),
		RoundTimeout:   roundTimeout,
		Async:          acfg.on,
		StalenessBound: acfg.stalenessBound,
		Buffer:         acfg.buffer,
		Codec:          codec,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	if acfg.on {
		fmt.Printf("async aggregation server on %s (N=%d, K=%d, staleness-bound=%d, buffer=%d); Ctrl-C to stop\n",
			bound, clients, k, acfg.stalenessBound, acfg.buffer)
	} else {
		fmt.Printf("aggregation server on %s (N=%d, K=%d, round-timeout=%v); Ctrl-C to stop\n",
			bound, clients, k, roundTimeout)
	}
	select {} // serve forever
}

func runClient(addr, dataset string, tasks, rounds, comm int, seed int64, opts fednet.Options, faults fed.FaultSpec) error {
	spec, err := specFor(dataset, seed)
	if err != nil {
		return err
	}
	local, err := buildLocal(spec, tasks, seed)
	if err != nil {
		return err
	}
	rc, err := fednet.DialOptions(addr, local, clientTransport(faults), opts)
	if err != nil {
		return err
	}
	defer rc.Close()
	verb := "joined"
	if opts.Rejoin {
		verb = "rejoined"
	}
	regime := "barrier"
	if rc.Async() {
		regime = "async"
	}
	fmt.Printf("client %d (%s) %s %s [%s] at round %d; training %d rounds x %d episodes\n",
		rc.ID(), spec.Dataset, verb, addr, regime, rc.Round(), rounds, comm)
	if err := rc.RunRounds(rounds, comm); err != nil {
		return err
	}
	printStats(rc)
	printCurve(local)
	return nil
}

// clientTransport wraps the public-critic transport in a fault injector
// when a fault spec is active.
func clientTransport(faults fed.FaultSpec) fed.Transport {
	var tr fed.Transport = fed.PublicCriticTransport{}
	if faults.Active() {
		tr = fed.NewFaultyTransport(tr, faults)
	}
	return tr
}

func printStats(rc *fednet.RemoteClient) {
	st := rc.Stats()
	if st.Retries+st.Timeouts+st.Resyncs == 0 {
		return
	}
	fmt.Printf("  client %d absorbed: %d retries, %d rpc timeouts, %d round resyncs\n",
		rc.ID(), st.Retries, st.Timeouts, st.Resyncs)
}

func runDemo(clients, k, rounds, comm, tasks int, seed int64, roundTimeout time.Duration, opts fednet.Options, faults fed.FaultSpec, acfg asyncConfig, codec fedcore.CodecConfig) error {
	specs := core.ScaleSpecs(core.Table3Specs(), 4)
	if clients > len(specs) {
		clients = len(specs)
	}
	ref, err := buildLocal(specs[0], 10, seed+999)
	if err != nil {
		return err
	}
	transport := fed.PublicCriticTransport{}
	initial, err := transport.Upload(ref)
	if err != nil {
		return err
	}
	if k <= 0 {
		k = fedcore.DefaultK(clients)
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		Clients: clients, K: k, Seed: seed,
		InitialGlobal:  initial,
		Aggregator:     fed.NewAttention(seed),
		RoundTimeout:   roundTimeout,
		Async:          acfg.on,
		StalenessBound: acfg.stalenessBound,
		Buffer:         acfg.buffer,
		Codec:          codec,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	if acfg.on {
		fmt.Printf("async demo federation on %s: %d clients, K=%d, %d rounds x %d episodes, staleness-bound=%d, buffer=%d\n\n",
			addr, clients, k, rounds, comm, acfg.stalenessBound, acfg.buffer)
	} else {
		fmt.Printf("demo federation on %s: %d clients, K=%d, %d rounds x %d episodes, round-timeout=%v\n\n",
			addr, clients, k, rounds, comm, roundTimeout)
	}

	var wg sync.WaitGroup
	locals := make([]*fed.Client, clients)
	remotes := make([]*fednet.RemoteClient, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		local, err := buildLocal(specs[i], tasks, seed+int64(i))
		if err != nil {
			return err
		}
		locals[i] = local
		cliOpts := opts
		cliOpts.Seed = seed + int64(i)
		// Each client gets its own injector stream so fault schedules are
		// independent and reproducible per client.
		cliFaults := faults
		cliFaults.Seed = faults.Seed + int64(i)
		rc, err := fednet.DialOptions(addr, local, clientTransport(cliFaults), cliOpts)
		if err != nil {
			return err
		}
		remotes[i] = rc
		defer rc.Close()
		wg.Add(1)
		go func(i int, rc *fednet.RemoteClient) {
			defer wg.Done()
			errs[i] = rc.RunRounds(rounds, comm)
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	if acfg.on {
		// Commit whatever is left in the buffer and let every client pull
		// the final round before reporting.
		if rep, ok := srv.Flush(); ok {
			fmt.Printf("shutdown flush committed round %d with %d arrivals\n", rep.Round, rep.Arrived)
		}
		for _, rc := range remotes {
			if _, err := rc.Fetch(); err != nil {
				return fmt.Errorf("client %d final fetch: %w", rc.ID(), err)
			}
		}
	}
	fmt.Printf("server completed %d rounds; global model %d params\n", srv.Rounds(), len(srv.Global()))
	for _, info := range srv.Reports() {
		if info.TimedOut || info.Arrived < info.Expected {
			fmt.Printf("  round %d closed with %d/%d arrivals (%d aggregated, timed-out=%v)\n",
				info.Round, info.Arrived, info.Expected, info.Participants, info.TimedOut)
		}
	}
	fmt.Println()
	for i, local := range locals {
		printStats(remotes[i])
		printCurve(local)
	}
	return nil
}

// runSwarm drives the deterministic many-client async chaos harness: N
// in-process heterogeneous clients over loopback fednet, fault injector on,
// everything seeded. Same seed, same output.
func runSwarm(clients, k, rounds, comm, tasks int, seed int64, stalenessBound, buffer, retries int, faults fed.FaultSpec, codec fedcore.CodecConfig) error {
	res, err := fednet.RunSwarm(fednet.SwarmConfig{
		Clients:        clients,
		K:              k,
		Buffer:         buffer,
		StalenessBound: stalenessBound,
		Rounds:         rounds,
		CommEvery:      comm,
		Tasks:          tasks,
		Seed:           seed,
		Faults:         faults,
		Retries:        retries,
		Codec:          codec,
	})
	if err != nil {
		return err
	}
	fmt.Printf("swarm: %d clients committed %d async rounds (flushed=%v)\n",
		clients, res.Rounds, res.Flushed)
	fmt.Printf("  drops: %d stale, %d duplicate; client retries: %d\n",
		res.StaleDrops, res.DupDrops, res.Retries)
	if res.Faults.Total() > 0 {
		fmt.Printf("  injected faults: %d drops, %d delays, %d duplicates, %d corruptions\n",
			res.Faults.Drops, res.Faults.Delays, res.Faults.Duplicates, res.Faults.Corruptions)
	}
	fmt.Printf("  wire: %d bytes moved, %.2fx compression\n",
		res.Comm.Bytes(), res.Comm.CompressionRatio())
	fmt.Printf("  final mean reward: %.2f over %d params\n", res.MeanReward, len(res.Global))
	return nil
}

func printCurve(c *fed.Client) {
	if len(c.Rewards) == 0 {
		return
	}
	first, last := c.Rewards[0], c.Rewards[len(c.Rewards)-1]
	fmt.Printf("  %-22s episodes=%-3d reward %8.1f -> %8.1f\n", c.Name, len(c.Rewards), first, last)
}
