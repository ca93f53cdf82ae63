package fedcore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Async round lifecycle (FedBuff-style buffered asynchronous aggregation).
//
// The synchronous engine barriers every round on a K-of-N quorum, so one
// slow client gates the fleet. AsyncEngine removes the barrier: clients
// submit deltas whenever their local segment finishes, each delta is
// staleness-weighted against the current global, and a commit (one
// aggregation round) fires every Buffer accepted arrivals instead of at a
// barrier. The round policy underneath — partial aggregation, corrupt-length
// filtering, late-join, reports, observability — is the unchanged sync
// Engine; AsyncEngine is a submission front-end over it.
//
// Staleness: a client reports the base round whose global it last installed;
// staleness τ = currentRound − base. A delta with τ over the configured
// bound is dropped into the round report (StaleDrops) rather than mixed.
// An accepted delta with τ > 0 is pre-mixed toward the current global with
// weight w(τ) = 1/(1+τ):
//
//	ũ = w·u + (1−w)·ψ_G
//
// so stale contributions pull the aggregate proportionally less. At τ = 0
// the blend is skipped entirely (not multiplied by w = 1), keeping fresh
// submissions bit-identical to the sync data path.
//
// Degradation pin: with StalenessBound = 0 and Buffer = K, every commit
// fires after exactly K fresh submissions, Select over the K-entry buffer is
// the identity (no RNG consumed), and the inner CompleteRound sees exactly
// the contributions the sync barrier would have — the async engine
// reproduces the sync engine bit-identically on the same seed, which the
// golden tests pin on both federation paths.

// AsyncOptions configures NewAsync.
type AsyncOptions struct {
	Options
	// StalenessBound is the maximum staleness (in rounds) a submission may
	// carry and still be mixed; anything staler is dropped into the round
	// report. Negative means unbounded. Zero accepts only fresh deltas —
	// the sync-degradation setting.
	StalenessBound int
	// Buffer is B, the number of accepted arrivals that triggers a commit.
	// <= 0 resolves to the engine's K.
	Buffer int
}

// SubmitStatus classifies the outcome of one AsyncEngine.Submit.
type SubmitStatus int

const (
	// SubmitAccepted: the delta was staleness-weighted and buffered (and
	// possibly committed, see SubmitResult.Committed).
	SubmitAccepted SubmitStatus = iota
	// SubmitDuplicate: a delta with this (client, seq) was already consumed —
	// a retransmit after a lost ACK. Dropped without touching the buffer.
	SubmitDuplicate
	// SubmitStale: the delta exceeded the staleness bound and was dropped
	// into the round report.
	SubmitStale
)

func (s SubmitStatus) String() string {
	switch s {
	case SubmitAccepted:
		return "accepted"
	case SubmitDuplicate:
		return "duplicate"
	case SubmitStale:
		return "stale"
	}
	return fmt.Sprintf("SubmitStatus(%d)", int(s))
}

// SubmitResult reports what one submission did.
type SubmitResult struct {
	Status    SubmitStatus
	Staleness int
	// Round is the engine round after this submission — post-commit when
	// the submission triggered one. Clients adopt it as their next base.
	Round int
	// Committed is the report of the commit this submission triggered, nil
	// otherwise.
	Committed *RoundReport
	// Personalized is this client's personalized payload when its delta was
	// part of the commit this submission triggered, nil otherwise.
	Personalized Payload
}

type asyncArrival struct {
	id     int
	upload Payload
}

// AsyncEngine is the buffered asynchronous submission front-end over Engine.
// All methods are safe for concurrent use; the lock order is
// AsyncEngine.mu → Engine.mu.
type AsyncEngine struct {
	e       *Engine
	deliver Delivery

	mu       sync.Mutex
	bound    int
	buffer   int
	expected int
	buf      []asyncArrival
	lastSeq  map[int]int
	// Window counters folded into the next commit's report, then reset.
	staleDrops  int
	dupDrops    int
	uploadDrops int
	// lastPersonal retains committed personalized payloads for participants
	// that were not the triggering submitter, to be served on their next
	// contact (push transports have no open reply to carry them). Entries
	// are copies: the engine's personalized payloads live in arena buffers
	// reused next round, and a taken entry may outlive several commits in
	// an RPC reply path.
	lastPersonal map[int]Payload

	// Pooled submission/commit scratch, reused across commits: the
	// staleness-mix buffers (one per buffered arrival, recycled when the
	// buffer drains) and the commit's candidate/contribution staging.
	mixPool    []Payload
	mixUsed    int
	scrCand    []int
	scrByID    map[int]Payload
	scrContrib []Contribution
}

// mixBuf hands out one pooled staleness-mix buffer of n scalars; buffers
// stay checked out until the next commit drains the arrival buffer. Caller
// holds a.mu.
func (a *AsyncEngine) mixBuf(n int) Payload {
	if a.mixUsed == len(a.mixPool) {
		a.mixPool = append(a.mixPool, make(Payload, n))
	}
	b := a.mixPool[a.mixUsed]
	if cap(b) < n {
		b = make(Payload, n)
		a.mixPool[a.mixUsed] = b
	}
	a.mixUsed++
	return b[:n]
}

// NewAsync builds an async engine over a fresh inner sync engine.
// The deliver callback runs at every commit, under both engine locks — it
// must not call back into either engine.
func NewAsync(agg Aggregator, initial Payload, opts AsyncOptions, deliver Delivery) (*AsyncEngine, error) {
	e, err := New(agg, initial, opts.Options)
	if err != nil {
		return nil, err
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = e.K()
	}
	return &AsyncEngine{
		e:            e,
		deliver:      deliver,
		bound:        opts.StalenessBound,
		buffer:       buffer,
		expected:     opts.Clients,
		lastSeq:      make(map[int]int),
		lastPersonal: make(map[int]Payload),
	}, nil
}

// Engine exposes the inner sync engine for read access (Round, Global,
// Reports, PayloadLen) and adapter-level Select.
func (a *AsyncEngine) Engine() *Engine { return a.e }

// Buffer returns the resolved commit trigger B.
func (a *AsyncEngine) Buffer() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.buffer
}

// Join applies the shared late-join/resync policy and clears the joiner's
// dedup state, so a restarted client reusing its id is not blocked by the
// sequence numbers of its previous life.
func (a *AsyncEngine) Join(clientID int) (round int, global Payload) {
	a.mu.Lock()
	delete(a.lastSeq, clientID)
	delete(a.lastPersonal, clientID)
	a.mu.Unlock()
	return a.e.Join()
}

// TakePersonal returns and clears the retained personalized payload from the
// client's last committed round, if any — served on the client's next
// contact after a commit it participated in but did not trigger.
func (a *AsyncEngine) TakePersonal(clientID int) (Payload, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.lastPersonal[clientID]
	if ok {
		delete(a.lastPersonal, clientID)
	}
	return p, ok
}

// AbsorbUploadDrops folds adapter-observed transport upload drops into the
// next commit's report, mirroring RoundStats.UploadDrops on the sync path.
func (a *AsyncEngine) AbsorbUploadDrops(n int) {
	a.mu.Lock()
	a.uploadDrops += n
	a.mu.Unlock()
}

// ErrBadUpload rejects a submission whose payload length does not match the
// global. The submission is not consumed: a retry with a well-formed payload
// and the same seq will succeed.
var ErrBadUpload = errors.New("fedcore: async upload length mismatch")

// Submit applies one client delta. seq is the client's monotone submission
// counter (dedup key — retransmits carry the same seq); base is the engine
// round whose global the client last installed (staleness anchor). A commit
// fires inside Submit when the buffer reaches B accepted arrivals.
func (a *AsyncEngine) Submit(clientID, seq, base int, upload Payload) (SubmitResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	round := a.e.Round()
	staleness := round - base
	if staleness < 0 {
		staleness = 0
	}
	res := SubmitResult{Staleness: staleness, Round: round}

	if last, ok := a.lastSeq[clientID]; ok && seq <= last {
		a.dupDrops++
		mDupDrops.Inc()
		res.Status = SubmitDuplicate
		a.emitDelta(clientID, round, staleness, res.Status)
		return res, nil
	}
	if len(upload) != a.e.PayloadLen() {
		// Not consumed: lastSeq is untouched so a rebuilt retry passes.
		a.uploadDrops++
		return res, ErrBadUpload
	}
	if a.bound >= 0 && staleness > a.bound {
		a.staleDrops++
		a.lastSeq[clientID] = seq
		mStaleDrops.Inc()
		hStaleness.Observe(float64(staleness))
		res.Status = SubmitStale
		a.emitDelta(clientID, round, staleness, res.Status)
		return res, nil
	}

	a.lastSeq[clientID] = seq
	hStaleness.Observe(float64(staleness))
	// The arrival is staged into a pooled buffer either way, so Submit never
	// retains the caller's slice (adapters reuse their decode buffers across
	// submissions).
	mixed := a.mixBuf(len(upload))
	if staleness > 0 {
		// ũ = w·u + (1−w)·ψ_G with w = 1/(1+τ); skipped at τ = 0 so fresh
		// submissions stay bit-identical to the sync data path.
		w := 1.0 / (1.0 + float64(staleness))
		global := a.e.Global()
		for i, u := range upload {
			mixed[i] = w*u + (1-w)*global[i]
		}
	} else {
		copy(mixed, upload)
	}
	a.buf = append(a.buf, asyncArrival{id: clientID, upload: mixed})
	gBufferFill.Set(float64(len(a.buf)))
	res.Status = SubmitAccepted
	a.emitDelta(clientID, round, staleness, res.Status)

	if len(a.buf) >= a.buffer {
		report := a.commitLocked()
		res.Committed = &report
		if p, ok := a.lastPersonal[clientID]; ok {
			res.Personalized = p
			delete(a.lastPersonal, clientID)
		}
	}
	res.Round = a.e.Round()
	return res, nil
}

// Flush force-commits a partially filled buffer (end of training / shutdown)
// so trailing deltas are not lost. Returns the report, or ok=false when the
// buffer was empty.
func (a *AsyncEngine) Flush() (RoundReport, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.buf) == 0 {
		return RoundReport{}, false
	}
	return a.commitLocked(), true
}

// commitLocked closes one async round over the buffered arrivals: commit-time
// Select draws the participants (identity order — and no RNG consumed — when
// K covers the whole buffer), the inner CompleteRound aggregates, and the
// window drop counters are folded into the report. Caller holds a.mu.
func (a *AsyncEngine) commitLocked() RoundReport {
	candidates := a.scrCand[:0]
	if a.scrByID == nil {
		a.scrByID = make(map[int]Payload, len(a.buf))
	}
	clear(a.scrByID)
	byID := a.scrByID
	for _, arr := range a.buf {
		candidates = append(candidates, arr.id)
		byID[arr.id] = arr.upload
	}
	a.scrCand = candidates
	participants := a.e.Select(candidates)
	contribs := a.scrContrib[:0]
	for _, id := range participants {
		contribs = append(contribs, Contribution{ID: id, Upload: byID[id]})
	}
	a.scrContrib = contribs
	stats := RoundStats{
		Expected:    a.expected,
		Selected:    len(participants),
		Arrived:     len(a.buf),
		UploadDrops: a.uploadDrops,
		StaleDrops:  a.staleDrops,
		DupDrops:    a.dupDrops,
	}
	report := a.e.CompleteRound(contribs, stats, func(personalized map[int]Payload, global Payload) (int, time.Duration) {
		for id, p := range personalized {
			// Copy out of the arena: the retained payload may be taken by
			// an RPC reply long after the arena buffer is rewritten.
			a.lastPersonal[id] = append(Payload(nil), p...)
		}
		if a.deliver == nil {
			return 0, 0
		}
		return a.deliver(personalized, global)
	})
	a.buf = a.buf[:0]
	a.mixUsed = 0
	a.uploadDrops, a.staleDrops, a.dupDrops = 0, 0, 0
	gBufferFill.Set(0)
	mAsyncCommits.Inc()
	return report
}

func (a *AsyncEngine) emitDelta(clientID, round, staleness int, status SubmitStatus) {
	if !obs.Active() {
		return
	}
	obs.Emit(obs.E("delta").At(clientID, round, -1).
		F("staleness", float64(staleness)).
		F("buffer_fill", float64(len(a.buf))).
		S("status", status.String()))
}
