package rl

import (
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// updateScratch owns every reusable buffer of the batched update pipeline,
// hoisting all per-call staging out of ppoUpdate so a steady-state Update
// performs no per-minibatch allocations: the shuffle index, the minibatch
// action/staging matrices, the GAE output slices, and the pooled tape the
// actor and critic steps take turns on. Each agent embeds one; it is not
// safe for concurrent use, matching the agents' one-goroutine-per-agent
// contract.
type updateScratch struct {
	idx     []int
	actions []int

	// adv/targets receive the GAE pass (agent-owned so GAEInto can reuse
	// them across Update calls).
	adv, targets []float64

	// Minibatch staging, allocated at MiniBatch rows and viewed down for the
	// final partial batch. Rewritten fully for every batch.
	states, oldLogp, advantage, target, oldValue *tensor.Matrix
	stagedRows                                   int

	tape *autograd.Tape
}

// ensure sizes the scratch for a buffer of n transitions under the given
// minibatch size and state dimension, allocating only on first use or growth.
func (st *updateScratch) ensure(n, mb, stateDim int) {
	if st.tape == nil {
		st.tape = autograd.NewPooledTape(tensor.DefaultPool())
	}
	if cap(st.idx) < n {
		st.idx = make([]int, n)
	}
	st.idx = st.idx[:n]
	if cap(st.actions) < mb {
		st.actions = make([]int, mb)
	}
	if st.states == nil || st.states.Cols != stateDim || st.stagedRows < mb {
		st.states = tensor.New(mb, stateDim)
		st.oldLogp = tensor.New(mb, 1)
		st.advantage = tensor.New(mb, 1)
		st.target = tensor.New(mb, 1)
		st.oldValue = tensor.New(mb, 1)
		st.stagedRows = mb
	}
}

// viewRows reslices a scratch matrix to its first rows rows (the final
// minibatch of an epoch is usually partial). The caller owns m and rewrites
// every viewed element before use.
func viewRows(m *tensor.Matrix, rows int) *tensor.Matrix {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// criticModule pairs a critic network with its optimizer for the shared
// update loop.
type criticModule struct {
	net *nn.MLP
	opt *nn.Adam
}

// ppoUpdateSpec feeds the shared minibatch update loop used by both PPO and
// DualCriticPPO. criticLoss produces the scalar loss to minimize for the
// critic networks (a single MSE for PPO; the sum of the two independent
// regressions of Eqs. 16–17 for the dual critic); every module in
// criticModules is stepped.
type ppoUpdateSpec struct {
	cfg Config
	rng *rand.Rand
	// scratch is the agent-owned staging state; required.
	scratch *updateScratch
	buf     *Buffer
	adv     []float64
	targets []float64

	actor    *nn.MLP
	actorOpt *nn.Adam

	// criticLoss builds the scalar critic loss; oldValues holds the
	// collection-time value estimates (for PPO2-style value clipping).
	criticLoss    func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value
	criticModules []criticModule

	// prox, when non-nil, applies FedProx regularization to every stepped
	// module (see Proximal).
	prox *Proximal
}

// mPPOUpdates counts completed gradient updates across all agents.
var mPPOUpdates = obs.DefaultRegistry().Counter("pfrl_ppo_updates_total",
	"PPO gradient updates completed (all agents)")

// ppoUpdate runs the batched clipped-PPO optimization over the buffer: for
// every epoch, shuffle, stage each minibatch once into the agent's scratch,
// then run the actor step (fused surrogate head) and then the critic step on
// the same tape. Numerics are bitwise identical to the historical
// one-op-per-node sequential loop (TestBatchedUpdateMatchesReference).
func ppoUpdate(s ppoUpdateSpec) UpdateStats {
	steps := s.buf.Steps()
	n := len(steps)
	if n == 0 {
		return UpdateStats{}
	}
	defer mPPOUpdates.Inc()
	st := s.scratch
	st.ensure(n, s.cfg.MiniBatch, s.cfg.StateDim)
	idx := st.idx
	for i := range idx {
		idx[i] = i
	}

	var stats UpdateStats
	for epoch := 0; epoch < s.cfg.UpdateEpochs; epoch++ {
		s.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochActor, epochCritic, epochEntropy := 0.0, 0.0, 0.0
		epochKL, epochClip := 0.0, 0.0
		batches := 0
		for lo := 0; lo < n; lo += s.cfg.MiniBatch {
			hi := lo + s.cfg.MiniBatch
			if hi > n {
				hi = n
			}
			bsz := hi - lo
			states := viewRows(st.states, bsz)
			oldLogp := viewRows(st.oldLogp, bsz)
			advantage := viewRows(st.advantage, bsz)
			target := viewRows(st.target, bsz)
			oldValue := viewRows(st.oldValue, bsz)
			actions := st.actions[:bsz]
			for bi := 0; bi < bsz; bi++ {
				t := idx[lo+bi]
				copy(states.Row(bi), steps[t].State)
				actions[bi] = steps[t].Action
				oldLogp.Data[bi] = steps[t].LogProb
				advantage.Data[bi] = s.adv[t]
				target.Data[bi] = s.targets[t]
				oldValue.Data[bi] = steps[t].Value
			}

			// --- Actor step: L = -E[min(r·A, clip(r)·A)] - c·H(π) ---
			// Gradients are already zero here: parameters start with cleared
			// grads and Optimizer.Step consumes them, so no ZeroGrads sweep.
			at := st.tape
			at.Reset()
			logits := s.actor.Forward(at, at.Const(states))
			res := autograd.ClippedSurrogateLoss(logits, actions, oldLogp, advantage, s.cfg.Clip, s.cfg.EntCoef)
			res.Loss.Backward()
			if s.prox != nil {
				s.prox.Apply(s.actor)
			}
			nn.ClipGradNorm(s.actor, s.cfg.MaxGradNorm)
			s.actorOpt.Step()
			epochActor += -res.Objective
			epochEntropy += res.Entropy
			// Approximate KL(π_old ‖ π_new) = E[log π_old − log π_new], and
			// the clip fraction: how often the surrogate actually clipped.
			klBatch, clipped := 0.0, 0
			for bi := 0; bi < bsz; bi++ {
				klBatch += oldLogp.Data[bi] - res.ActLogp[bi]
				if r := res.Ratio[bi]; r < 1-s.cfg.Clip || r > 1+s.cfg.Clip {
					clipped++
				}
			}
			epochKL += klBatch / float64(bsz)
			epochClip += float64(clipped) / float64(bsz)

			epochCritic += criticStep(&s)
			batches++
		}
		if batches > 0 {
			stats = UpdateStats{
				ActorLoss:  epochActor / float64(batches),
				CriticLoss: epochCritic / float64(batches),
				Entropy:    epochEntropy / float64(batches),
				ApproxKL:   epochKL / float64(batches),
				ClipFrac:   epochClip / float64(batches),
			}
		}
		if s.cfg.TargetKL > 0 && batches > 0 && stats.ApproxKL > s.cfg.TargetKL {
			break // the policy moved far enough; further epochs overfit the batch
		}
	}
	return stats
}

// criticStep runs one critic optimization over the currently staged
// minibatch (the scratch views) and returns the loss. It resets the shared
// tape, so the actor step's outputs must be consumed before it runs.
func criticStep(s *ppoUpdateSpec) float64 {
	st := s.scratch
	// Critic grads are zero on entry for the same reason as the actor's:
	// each cm.opt.Step() below consumes them.
	ct := st.tape
	ct.Reset()
	closs := s.criticLoss(ct, ct.Const(st.states), ct.Const(st.target), ct.Const(st.oldValue))
	closs.Backward()
	for _, cm := range s.criticModules {
		if s.prox != nil {
			s.prox.Apply(cm.net)
		}
		nn.ClipGradNorm(cm.net, s.cfg.MaxGradNorm)
		cm.opt.Step()
	}
	return closs.Item()
}
