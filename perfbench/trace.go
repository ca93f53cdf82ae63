package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
	"repro/internal/rl"
	wl "repro/internal/workload"
)

// span is one traced interval. Spans nest through Parent; a span's self time
// is its duration minus its children's durations minus Covered, the time of
// calls counted inside it without a span of their own (a rollout's env
// calls), so a rollout's self time is exactly its policy-inference time.
type span struct {
	ID      int32  `json:"id"`
	Name    string `json:"name"`
	Parent  int32  `json:"parent"` // -1 for a root
	Client  int32  `json:"client"` // -1 when the span is not a client's
	Round   int32  `json:"round"`  // round or request index, -1 outside one
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Covered int64  `json:"covered_ns,omitempty"`
	Count   int64  `json:"count,omitempty"` // transitions, for rollouts
}

// Span names. Containers (run, round, window, episode) hold no work of their
// own: their self time is the ledger's unattributed time.
const (
	spRun         = "run"
	spRound       = "fed.round"
	spSegment     = "fed.segment"
	spServer      = "fed.server"
	spUpload      = "fed.upload"
	spDownload    = "fed.download"
	spAggregate   = "fedcore.aggregate"
	spIndependent = "rl.independent"
	spWindow      = "client.window"
	spWait        = "fed.client_wait"
	spEpisode     = "rl.episode"
	spReset       = "cloudsim.reset"
	spRollout     = "rl.rollout"
	spUpdate      = "rl.update"
	spRequest     = "fednet.request"
)

// tracer records spans from the benchmark's own wrappers around the calls a
// workload makes into the program's public API: the env each client trains
// in (fed.Client.TrainEnv), the federation transport, the aggregator, and the
// obs episode event, which marks the end of an agent update. It keeps spans
// in memory; write dumps them once the run is over.
//
// Timelines: the main goroutine owns the run, round, segment, server and
// request spans and every transport call. On the in-process federation each
// client trains in its own goroutine during a segment, inside a window span
// that runs from segment start to segment end; those windows are roots of
// their own, so the ledger's total counts the main goroutine's wall clock
// plus every client's window (thread-seconds). Over fednet the main
// goroutine is the client, and the server's aggregations are roots on the
// server's goroutines.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	on    atomic.Bool // recording; wrappers pass through while false (setup)

	// serverSide marks aggregations as running on a server goroutine (fednet)
	// rather than under the main goroutine's server span.
	serverSide bool
	// windows opens a per-client window span per segment (in-process paths).
	windows bool

	// Written only by the main goroutine, between segments.
	round    int32
	roundID  int32
	serverID int32
	parent   int32 // parent of transport and episode spans outside windows
	segStart int64
	segOpen  bool
	clients  []*clientTrace // the running federation's, by client ID
	all      []*clientTrace // every timeline attached, for the env totals
}

func newTracer() *tracer {
	// Capacity for a whole fedround traced pass, so recording in steady
	// state does not allocate (the aggregator wrapper's zero-alloc test
	// relies on it).
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<15), round: -1, parent: -1, roundID: -1, serverID: -1}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

// add appends a finished span and returns its ID.
func (tr *tracer) add(s span) int32 {
	tr.mu.Lock()
	s.ID = int32(len(tr.spans))
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s.ID
}

// open reserves a span whose end is not known yet; finish closes it.
func (tr *tracer) open(name string, parent, client, round int32, start int64) int32 {
	return tr.add(span{Name: name, Parent: parent, Client: client, Round: round, Start: start, End: start})
}

func (tr *tracer) finish(id int32, end int64) {
	tr.mu.Lock()
	tr.spans[id].End = end
	tr.mu.Unlock()
}

// startRun opens the root span and turns recording on.
func (tr *tracer) startRun() int32 {
	tr.on.Store(true)
	tr.parent = tr.open(spRun, -1, -1, -1, tr.now())
	return tr.parent
}

func (tr *tracer) endRun(runID int32) {
	tr.finish(runID, tr.now())
	tr.on.Store(false)
}

// beginRound starts a round; the client windows of its training segment
// start here.
func (tr *tracer) beginRound(round int32) {
	tr.round = round
	tr.segStart = tr.now()
	tr.segOpen = true
	tr.roundID = tr.open(spRound, tr.parent, -1, round, tr.segStart)
	tr.serverID = tr.open(spServer, tr.roundID, -1, round, tr.segStart)
}

// closeSegment ends the local-training segment at t: the first transport
// call of the round, or the round's end. Every client that trained gets a
// wait span from its last update to t, and its window closes.
func (tr *tracer) closeSegment(t int64) {
	if !tr.segOpen {
		return
	}
	tr.segOpen = false
	tr.add(span{Name: spSegment, Parent: tr.roundID, Client: -1, Round: tr.round, Start: tr.segStart, End: t})
	tr.mu.Lock()
	tr.spans[tr.serverID].Start = t
	tr.mu.Unlock()
	tr.closeWindows(t)
}

func (tr *tracer) closeWindows(t int64) {
	for _, ct := range tr.clients {
		if ct.window < 0 {
			continue
		}
		tr.add(span{Name: spWait, Parent: ct.window, Client: ct.id, Round: tr.round, Start: ct.lastEvent, End: t})
		tr.finish(ct.window, t)
		ct.window = -1
	}
}

func (tr *tracer) endRound() {
	t := tr.now()
	tr.closeSegment(t)
	tr.finish(tr.serverID, t)
	tr.finish(tr.roundID, t)
	tr.round, tr.roundID, tr.serverID = -1, -1, -1
}

// beginIndependent / endIndependent bracket PPO's federation-free training
// on fig15: one main-goroutine span whose wall time the client windows fill.
func (tr *tracer) beginIndependent() int32 {
	tr.segStart = tr.now()
	return tr.open(spIndependent, tr.parent, -1, -1, tr.segStart)
}

func (tr *tracer) endIndependent(id int32) {
	t := tr.now()
	tr.closeWindows(t)
	tr.finish(id, t)
}

// beginRequest / endRequest bracket one fednet client request.
func (tr *tracer) beginRequest(i, client int32) (prev int32) {
	prev = tr.parent
	tr.round = i
	tr.parent = tr.open(spRequest, prev, client, i, tr.now())
	return prev
}

func (tr *tracer) endRequest(prev int32) {
	tr.finish(tr.parent, tr.now())
	tr.parent = prev
	tr.round = -1
}

// transportParent is the span a transport call belongs to. On the in-process
// path the first call of a round ends the training segment.
func (tr *tracer) transportParent(t int64) int32 {
	if tr.serverID >= 0 {
		tr.closeSegment(t)
		return tr.serverID
	}
	return tr.parent
}

// attach gives each client a timeline and trains it in a tracedEnv. The
// timelines take effect once use installs them.
func (tr *tracer) attach(clients []*fed.Client) []*clientTrace {
	cts := make([]*clientTrace, len(clients))
	for i, c := range clients {
		ct := &clientTrace{tr: tr, id: int32(c.ID), window: -1}
		cts[i] = ct
		c.TrainEnv = &tracedEnv{inner: c.Env, tasks: c.Tasks, ct: ct}
	}
	tr.all = append(tr.all, cts...)
	return cts
}

// use installs the timelines of the federation about to run: the episode
// hook and segment bookkeeping index them by client ID.
func (tr *tracer) use(cts []*clientTrace) { tr.clients = cts }

// Emit implements obs.Sink. The program emits an "episode" event on the
// client's goroutine right after the agent's update returns; that instant
// ends the update span. Other event types are ignored.
func (tr *tracer) Emit(e *obs.Event) {
	if e.Type != "episode" || e.Client < 0 || e.Client >= len(tr.clients) {
		return
	}
	tr.clients[e.Client].episodeEnd(tr.now())
}

// clientTrace is one client's timeline. Its episode fields are touched only
// by the goroutine training that client; the main goroutine reads them after the
// segment's goroutines have been joined.
type clientTrace struct {
	tr     *tracer
	id     int32
	window int32

	// inEpisode is set from Begin to the episode event. Env calls after the
	// final Done (the truncation bootstrap's Truncated and Observe) still
	// belong to the rollout.
	inEpisode                          bool
	epStart, resetEnd, rolloutEnd, env int64
	epSteps                            int64
	lastEvent                          int64

	observeNs, stepNs, steps int64
	// unmatched counts episodes that began before the previous one's update
	// ended, which would mean the episode hook was not installed.
	unmatched int
}

func (ct *clientTrace) begin() {
	tr := ct.tr
	t := tr.now()
	if ct.inEpisode {
		ct.unmatched++
	}
	if tr.windows && ct.window < 0 {
		// The time from segment start to the first episode is the wait for
		// the scheduler to run this client's goroutine.
		ct.window = tr.open(spWindow, -1, ct.id, tr.round, tr.segStart)
		tr.add(span{Name: spWait, Parent: ct.window, Client: ct.id, Round: tr.round, Start: tr.segStart, End: t})
	}
	ct.epStart = t
}

func (ct *clientTrace) beganRollout() {
	t := ct.tr.now()
	ct.resetEnd, ct.rolloutEnd = t, t
	ct.env, ct.epSteps = 0, 0
	ct.inEpisode = true
}

// envCall accounts one env call that started at t0 into bucket.
func (ct *clientTrace) envCall(t0 int64, bucket *int64) {
	t := ct.tr.now()
	*bucket += t - t0
	if ct.inEpisode {
		ct.env += t - t0
		ct.rolloutEnd = t
	}
}

func (ct *clientTrace) episodeEnd(t int64) {
	if !ct.inEpisode {
		return
	}
	ct.inEpisode = false
	ct.lastEvent = t
	tr := ct.tr
	parent := ct.window
	if parent < 0 {
		parent = tr.parent
	}
	tr.mu.Lock()
	ep := int32(len(tr.spans))
	tr.spans = append(tr.spans,
		span{ID: ep, Name: spEpisode, Parent: parent, Client: ct.id, Round: tr.round, Start: ct.epStart, End: t},
		span{ID: ep + 1, Name: spReset, Parent: ep, Client: ct.id, Round: tr.round, Start: ct.epStart, End: ct.resetEnd},
		span{ID: ep + 2, Name: spRollout, Parent: ep, Client: ct.id, Round: tr.round, Start: ct.resetEnd, End: ct.rolloutEnd, Covered: ct.env, Count: ct.epSteps},
		span{ID: ep + 3, Name: spUpdate, Parent: ep, Client: ct.id, Round: tr.round, Start: ct.rolloutEnd, End: t},
	)
	tr.mu.Unlock()
}

// tracedEnv is the fed.EpisodeEnv the traced run trains each client in:
// Begin resets the client's cloudsim env to its training tasks, exactly the
// default loop's c.Env.Reset(c.Tasks), and every other call is forwarded and
// timed. It forwards rl.Truncator, so the truncation bootstrap — and with it
// every reward — is the same as untraced.
type tracedEnv struct {
	inner *cloudsim.Env
	tasks []wl.Task
	ct    *clientTrace
}

var (
	_ fed.EpisodeEnv = (*tracedEnv)(nil)
	_ rl.Truncator   = (*tracedEnv)(nil)
)

func (e *tracedEnv) Begin() {
	e.ct.begin()
	e.inner.Reset(e.tasks)
	e.ct.beganRollout()
}

func (e *tracedEnv) Observe(dst []float64) []float64 {
	t0 := e.ct.tr.now()
	out := e.inner.Observe(dst)
	e.ct.envCall(t0, &e.ct.observeNs)
	return out
}

func (e *tracedEnv) Step(action int) float64 {
	t0 := e.ct.tr.now()
	r := e.inner.Step(action)
	e.ct.envCall(t0, &e.ct.stepNs)
	e.ct.steps++
	e.ct.epSteps++
	return r
}

// Done and the other queries count as step time: they read the state the
// last Step left.
func (e *tracedEnv) Done() bool {
	t0 := e.ct.tr.now()
	d := e.inner.Done()
	e.ct.envCall(t0, &e.ct.stepNs)
	return d
}

func (e *tracedEnv) Truncated() bool {
	t0 := e.ct.tr.now()
	tr := e.inner.Truncated()
	e.ct.envCall(t0, &e.ct.stepNs)
	return tr
}

func (e *tracedEnv) FeasibleActions() []bool {
	t0 := e.ct.tr.now()
	m := e.inner.FeasibleActions()
	e.ct.envCall(t0, &e.ct.stepNs)
	return m
}

func (e *tracedEnv) StateDim() int   { return e.inner.StateDim() }
func (e *tracedEnv) NumActions() int { return e.inner.NumActions() }

// tracedTransport times every Upload and Download the federation or a fednet
// client makes. Calls outside a recorded run (setup's initial sync) pass
// straight through.
type tracedTransport struct {
	inner fed.Transport
	tr    *tracer
}

func (t *tracedTransport) Name() string                  { return t.inner.Name() }
func (t *tracedTransport) PayloadSize(c *fed.Client) int { return t.inner.PayloadSize(c) }

func (t *tracedTransport) Upload(c *fed.Client) (fed.Payload, error) {
	if !t.tr.on.Load() {
		return t.inner.Upload(c)
	}
	t0 := t.tr.now()
	parent := t.tr.transportParent(t0)
	p, err := t.inner.Upload(c)
	t.tr.add(span{Name: spUpload, Parent: parent, Client: int32(c.ID), Round: t.tr.round, Start: t0, End: t.tr.now()})
	return p, err
}

func (t *tracedTransport) Download(c *fed.Client, p fed.Payload) error {
	if !t.tr.on.Load() {
		return t.inner.Download(c, p)
	}
	t0 := t.tr.now()
	parent := t.tr.transportParent(t0)
	err := t.inner.Download(c, p)
	t.tr.add(span{Name: spDownload, Parent: parent, Client: int32(c.ID), Round: t.tr.round, Start: t0, End: t.tr.now()})
	return err
}

// tracedAgg times aggregations. It implements fedcore.IntoAggregator, so the
// engine keeps its pooled AggregateInto path through the wrapper.
type tracedAgg struct {
	inner fedcore.IntoAggregator
	tr    *tracer
}

var _ fedcore.IntoAggregator = (*tracedAgg)(nil)

func (a *tracedAgg) Name() string { return a.inner.Name() }

func (a *tracedAgg) Aggregate(uploads []fed.Payload) ([]fed.Payload, fed.Payload) {
	t0 := a.tr.now()
	p, g := a.inner.Aggregate(uploads)
	a.record(t0)
	return p, g
}

func (a *tracedAgg) AggregateInto(uploads []fed.Payload, arena *fedcore.PayloadArena) ([]fed.Payload, fed.Payload) {
	t0 := a.tr.now()
	p, g := a.inner.AggregateInto(uploads, arena)
	a.record(t0)
	return p, g
}

func (a *tracedAgg) record(t0 int64) {
	if !a.tr.on.Load() {
		return
	}
	parent, round := int32(-1), int32(-1)
	if !a.tr.serverSide {
		parent, round = a.tr.serverID, a.tr.round
	}
	a.tr.add(span{Name: spAggregate, Parent: parent, Client: -1, Round: round, Start: t0, End: a.tr.now()})
}

// traceAggregator wraps agg for tracing; every aggregator the workloads use
// has the pooled path.
func traceAggregator(agg fed.Aggregator, tr *tracer) (fed.Aggregator, error) {
	into, ok := agg.(fedcore.IntoAggregator)
	if !ok {
		return nil, fmt.Errorf("aggregator %s has no AggregateInto path", agg.Name())
	}
	return &tracedAgg{inner: into, tr: tr}, nil
}

// ledger is the per-layer breakdown of a traced run.
type ledger struct {
	dur, self   map[string]int64
	count       map[string]int64
	covered     int64 // env time inside rollouts
	total       int64 // sum of root span durations
	overlap     int64 // most negative self time seen (a tracing bug if < 0)
	transitions int64
}

func (tr *tracer) ledger() ledger {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	l := ledger{dur: map[string]int64{}, self: map[string]int64{}, count: map[string]int64{}}
	children := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range tr.spans {
		d := s.End - s.Start
		self := d - children[i] - s.Covered
		// A child's clock reads fall inside its parent's, so a negative
		// self time is a tracing bug.
		if self < l.overlap {
			l.overlap = self
		}
		l.dur[s.Name] += d
		l.self[s.Name] += self
		l.count[s.Name]++
		l.covered += s.Covered
		l.transitions += s.Count
		if s.Parent < 0 {
			l.total += d
		}
	}
	return l
}

// write dumps every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
