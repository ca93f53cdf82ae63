package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ppoUpdateReference is a frozen verbatim copy of the pre-pipeline ppoUpdate
// loop: one op per tape node (no fused surrogate), a single shared tape,
// pool-sourced staging per minibatch, strictly sequential actor-then-critic
// order. It exists only as the golden reference the batched pipeline must
// match bit for bit.
func ppoUpdateReference(s ppoUpdateSpec) UpdateStats {
	steps := s.buf.Steps()
	n := len(steps)
	if n == 0 {
		return UpdateStats{}
	}
	stateDim := s.cfg.StateDim
	var stats UpdateStats

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	tape := autograd.NewPooledTape(tensor.DefaultPool())
	defer tape.Reset()
	actions := make([]int, s.cfg.MiniBatch)
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
			states := tensor.Get(bsz, stateDim)
			actions := actions[:bsz]
			oldLogp := tensor.Get(bsz, 1)
			advantage := tensor.Get(bsz, 1)
			target := tensor.Get(bsz, 1)
			oldValue := tensor.Get(bsz, 1)
			for bi := 0; bi < bsz; bi++ {
				t := idx[lo+bi]
				copy(states.Row(bi), steps[t].State)
				actions[bi] = steps[t].Action
				oldLogp.Data[bi] = steps[t].LogProb
				advantage.Data[bi] = s.adv[t]
				target.Data[bi] = s.targets[t]
				oldValue.Data[bi] = steps[t].Value
			}

			nn.ZeroGrads(s.actor)
			tape.Reset()
			sIn := tape.Const(states)
			logits := s.actor.Forward(tape, sIn)
			logp := autograd.LogSoftmaxRows(logits)
			actLogp := autograd.PickCols(logp, actions)
			ratio := autograd.Exp(autograd.Sub(actLogp, tape.Const(oldLogp)))
			advC := tape.Const(advantage)
			surr1 := autograd.Mul(ratio, advC)
			surr2 := autograd.Mul(autograd.Clamp(ratio, 1-s.cfg.Clip, 1+s.cfg.Clip), advC)
			objective := autograd.Mean(autograd.Minimum(surr1, surr2))
			probs := autograd.SoftmaxRows(logits)
			entropy := autograd.Neg(autograd.Mean(autograd.SumRows(autograd.Mul(probs, logp))))
			loss := autograd.Sub(autograd.Neg(objective), autograd.Scale(entropy, s.cfg.EntCoef))
			loss.Backward()
			if s.prox != nil {
				s.prox.Apply(s.actor)
			}
			nn.ClipGradNorm(s.actor, s.cfg.MaxGradNorm)
			s.actorOpt.Step()
			epochActor += -objective.Item()
			epochEntropy += entropy.Item()
			klBatch, clipped := 0.0, 0
			for bi := 0; bi < bsz; bi++ {
				klBatch += oldLogp.Data[bi] - actLogp.Data.Data[bi]
				if r := ratio.Data.Data[bi]; r < 1-s.cfg.Clip || r > 1+s.cfg.Clip {
					clipped++
				}
			}
			epochKL += klBatch / float64(bsz)
			epochClip += float64(clipped) / float64(bsz)

			for _, cm := range s.criticModules {
				nn.ZeroGrads(cm.net)
			}
			tape.Reset()
			closs := s.criticLoss(tape, tape.Const(states), tape.Const(target), tape.Const(oldValue))
			closs.Backward()
			for _, cm := range s.criticModules {
				if s.prox != nil {
					s.prox.Apply(cm.net)
				}
				nn.ClipGradNorm(cm.net, s.cfg.MaxGradNorm)
				cm.opt.Step()
			}
			epochCritic += closs.Item()
			tensor.Put(states)
			tensor.Put(oldLogp)
			tensor.Put(advantage)
			tensor.Put(target)
			tensor.Put(oldValue)
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
			break
		}
	}
	return stats
}

// referencePPOUpdate mirrors PPO.Update on the frozen reference loop.
func referencePPOUpdate(p *PPO, buf *Buffer) UpdateStats {
	adv, targets := buf.GAE(p.Cfg.Gamma, p.Cfg.Lambda)
	NormalizeInPlace(adv)
	return ppoUpdateReference(ppoUpdateSpec{
		cfg:      p.Cfg,
		rng:      p.rng,
		buf:      buf,
		adv:      adv,
		targets:  targets,
		actor:    p.Actor,
		actorOpt: p.actorOpt,
		criticLoss: func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value {
			return valueLoss(p.Critic.Forward(tape, states), targets, oldValues, p.Cfg.ValueClip)
		},
		criticModules: []criticModule{{net: p.Critic, opt: p.criticOpt}},
		prox:          &p.prox,
	})
}

// referenceDualUpdate mirrors DualCriticPPO.Update (without the trailing
// RefreshAlpha, which both callers run identically outside the loop).
func referenceDualUpdate(d *DualCriticPPO, buf *Buffer) UpdateStats {
	adv, targets := buf.GAE(d.Cfg.Gamma, d.Cfg.Lambda)
	NormalizeInPlace(adv)
	return ppoUpdateReference(ppoUpdateSpec{
		cfg:      d.Cfg,
		rng:      d.rng,
		buf:      buf,
		adv:      adv,
		targets:  targets,
		actor:    d.Actor,
		actorOpt: d.actorOpt,
		criticLoss: func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value {
			vl := d.LocalCritic.Forward(tape, states)
			vp := d.PublicCritic.Forward(tape, states)
			lossL := valueLoss(vl, targets, oldValues, d.Cfg.ValueClip)
			lossP := valueLoss(vp, targets, oldValues, d.Cfg.ValueClip)
			return autograd.Add(lossL, lossP)
		},
		criticModules: []criticModule{
			{net: d.LocalCritic, opt: d.localOpt},
			{net: d.PublicCritic, opt: d.publicOpt},
		},
	})
}

func requireStatsEqual(t *testing.T, label string, want, got UpdateStats) {
	t.Helper()
	pairs := []struct {
		name string
		a, b float64
	}{
		{"ActorLoss", want.ActorLoss, got.ActorLoss},
		{"CriticLoss", want.CriticLoss, got.CriticLoss},
		{"Entropy", want.Entropy, got.Entropy},
		{"ApproxKL", want.ApproxKL, got.ApproxKL},
		{"ClipFrac", want.ClipFrac, got.ClipFrac},
	}
	for _, p := range pairs {
		if math.Float64bits(p.a) != math.Float64bits(p.b) {
			t.Fatalf("%s: %s differs: reference %v vs pipeline %v", label, p.name, p.a, p.b)
		}
	}
}

func requireParamsEqual(t *testing.T, label string, want, got nn.Module) {
	t.Helper()
	w, g := nn.FlattenParams(want), nn.FlattenParams(got)
	if len(w) != len(g) {
		t.Fatalf("%s: parameter count differs %d vs %d", label, len(w), len(g))
	}
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
			t.Fatalf("%s: parameter %d differs: reference %v (%#x) vs pipeline %v (%#x)",
				label, i, w[i], math.Float64bits(w[i]), g[i], math.Float64bits(g[i]))
		}
	}
}

// collectBuffer fills buf with at least minSteps transitions using a
// dedicated collector agent, so the agents under test keep identical rng
// streams for their updates.
func collectBuffer(t *testing.T, stateDim, numActions, minSteps int, seed int64) *Buffer {
	t.Helper()
	env := NewSyntheticEnv(stateDim, numActions, 32, seed)
	collector := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(seed)))
	var buf Buffer
	for buf.Len() < minSteps {
		env.Reset()
		CollectEpisode(env, collector, &buf)
	}
	return &buf
}

// TestBatchedUpdateMatchesReference pins golden property (a): the batched
// pipeline (fused surrogate head, hoisted scratch, one shared pooled tape)
// produces parameters and statistics bitwise identical to the frozen
// pre-change sequential update, across several rounds so Adam state and
// scratch reuse are exercised.
func TestBatchedUpdateMatchesReference(t *testing.T) {
	const stateDim, numActions = 24, 5
	t.Run("ppo", func(t *testing.T) {
		ref := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(99)))
		pipe := NewPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(99)))
		for round := 0; round < 3; round++ {
			buf := collectBuffer(t, stateDim, numActions, 150, int64(70+round))
			ws := referencePPOUpdate(ref, buf)
			gs := pipe.Update(buf)
			requireStatsEqual(t, "ppo stats", ws, gs)
			requireParamsEqual(t, "ppo actor", ref.Actor, pipe.Actor)
			requireParamsEqual(t, "ppo critic", ref.Critic, pipe.Critic)
		}
	})
	t.Run("dual-critic", func(t *testing.T) {
		ref := NewDualCriticPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(101)))
		pipe := NewDualCriticPPO(DefaultConfig(stateDim, numActions), rand.New(rand.NewSource(101)))
		for round := 0; round < 2; round++ {
			buf := collectBuffer(t, stateDim, numActions, 150, int64(80+round))
			adv, targets := buf.GAE(pipe.Cfg.Gamma, pipe.Cfg.Lambda)
			NormalizeInPlace(adv)
			st := &pipe.upd
			ws := referenceDualUpdate(ref, buf)
			gs := ppoUpdate(ppoUpdateSpec{
				cfg:      pipe.Cfg,
				rng:      pipe.rng,
				scratch:  st,
				buf:      buf,
				adv:      adv,
				targets:  targets,
				actor:    pipe.Actor,
				actorOpt: pipe.actorOpt,
				criticLoss: func(tape *autograd.Tape, states, targets, oldValues *autograd.Value) *autograd.Value {
					vl := pipe.LocalCritic.Forward(tape, states)
					vp := pipe.PublicCritic.Forward(tape, states)
					return autograd.Add(
						valueLoss(vl, targets, oldValues, pipe.Cfg.ValueClip),
						valueLoss(vp, targets, oldValues, pipe.Cfg.ValueClip))
				},
				criticModules: []criticModule{
					{net: pipe.LocalCritic, opt: pipe.localOpt},
					{net: pipe.PublicCritic, opt: pipe.publicOpt},
				},
			})
			requireStatsEqual(t, "dual stats", ws, gs)
			requireParamsEqual(t, "dual actor", ref.Actor, pipe.Actor)
			requireParamsEqual(t, "dual local critic", ref.LocalCritic, pipe.LocalCritic)
			requireParamsEqual(t, "dual public critic", ref.PublicCritic, pipe.PublicCritic)
		}
	})
	t.Run("value-clip-and-target-kl", func(t *testing.T) {
		cfg := DefaultConfig(stateDim, numActions)
		cfg.ValueClip = 0.3
		cfg.TargetKL = 0.02
		ref := NewPPO(cfg, rand.New(rand.NewSource(103)))
		pipe := NewPPO(cfg, rand.New(rand.NewSource(103)))
		buf := collectBuffer(t, stateDim, numActions, 150, 90)
		ws := referencePPOUpdate(ref, buf)
		gs := pipe.Update(buf)
		requireStatsEqual(t, "clip/kl stats", ws, gs)
		requireParamsEqual(t, "clip/kl actor", ref.Actor, pipe.Actor)
		requireParamsEqual(t, "clip/kl critic", ref.Critic, pipe.Critic)
	})
}

// TestPPOUpdateSteadyStateAllocs pins the hoisted-staging claim: after
// warmup, a full PPO update allocates at most a handful of objects (the
// critic closure and module slice built per call) — no per-minibatch or
// per-epoch allocations survive. testing.AllocsPerRun forces GOMAXPROCS=1
// itself; the gate at every core count is the BenchmarkPPOUpdate budget in
// scripts/bench_alloc_guard.sh, run at -cpu 1,2,4.
func TestPPOUpdateSteadyStateAllocs(t *testing.T) {
	env := NewSyntheticEnv(benchStateDim, benchActions, benchHorizon, 3)
	agent := benchAgent(4)
	var buf Buffer
	benchBuffer(env, agent, &buf, 256)
	for i := 0; i < 2; i++ { // warm tapes, pool, and staging
		agent.Update(&buf)
	}
	allocs := testing.AllocsPerRun(5, func() {
		agent.Update(&buf)
	})
	if allocs > 16 {
		t.Fatalf("PPO update allocates %.1f objects/op, want <= 16", allocs)
	}
}
