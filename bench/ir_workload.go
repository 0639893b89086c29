package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"adapcc/internal/backend"
	"adapcc/internal/baseline/blink"
	"adapcc/internal/baseline/msccl"
	"adapcc/internal/baseline/nccl"
	"adapcc/internal/cluster"
	"adapcc/internal/ir"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// lowering is one of the three ways a strategy becomes an IR program.
type lowering func(*strategy.Strategy) (*ir.Lowered, error)

// irInput is one strategy built in set-up, with the lowering that fits it.
type irInput struct {
	kind  string // op kind, and the span suffix
	st    *strategy.Strategy
	lower lowering
}

// irVerify is lowering and proof only: synth and both engines are bypassed.
// core.patchFromPrevious verifies after every patch, so at a thousand ranks
// this, not the search, is what recovery waits for.
type irVerify struct {
	d      dims
	inputs []irInput
	planMS float64 // synth's predicted completion time of the headline plan
	ring   []int   // ranks of the hand-written ring schedules
	tree   []int
	// mutate corrupts a verified program; the verifier must reject what it
	// returns. A test swaps in the identity to show the failure path.
	mutate func(*ir.Program, *rand.Rand) *ir.Program
}

func (w *irVerify) setup(r *run) error {
	w.inputs = nil
	for _, s := range []struct {
		kind    string
		servers int
	}{{"allreduce_small", w.d.synthSmall}, {"allreduce_big", w.d.synthBig}} {
		world, err := buildSynthWorld(r, s.servers)
		if err != nil {
			return err
		}
		var res *synth.Result
		r.call("synth", "synth.full", func() int64 {
			res, err = synth.Synthesize(world.costs, allReduceRequest())
			return 1
		})
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, irInput{s.kind, res.Strategy, ir.Lower})
		w.planMS = ms(res.Eval.Time) // the headline's: allreduce_big comes last
	}
	world, err := buildSynthWorld(r, w.d.irRoots)
	if err != nil {
		return err
	}
	for _, s := range []struct {
		kind  string
		prim  strategy.Primitive
		lower lowering
	}{{"reducescatter", strategy.Reduce, ir.LowerReduceScatter}, {"allgather", strategy.Broadcast, ir.LowerAllGather}} {
		var res *synth.Result
		r.call("synth", "synth.multiroot", func() int64 {
			res, err = synth.MultiRoot(world.costs, synth.Request{Primitive: s.prim, Bytes: 64 << 20})
			return 1
		})
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, irInput{s.kind, res.Strategy, s.lower})
	}
	if err := w.baselines(); err != nil {
		return err
	}
	w.ring, w.tree = seq(w.d.ringRanks), seq(w.d.treeRanks)
	return nil
}

// baselines builds the NCCL, MSCCL and Blink AllReduce graphs at 16 ranks,
// the largest size their own tests prove.
func (w *irVerify) baselines() error {
	cl, err := cluster.Homogeneous(topology.TransportRDMA, 4, 4)
	if err != nil {
		return err
	}
	env, err := backend.NewEnv(cl, 1)
	if err != nil {
		return err
	}
	ranks := env.AllRanks()
	st, err := nccl.New(env).BuildStrategy(strategy.AllReduce, 1<<20, ranks, -1)
	if err != nil {
		return err
	}
	w.inputs = append(w.inputs, irInput{"baseline_nccl", st, ir.Lower})
	if st, err = msccl.New(env).BuildStrategy(strategy.AllReduce, 1<<20, ranks, -1); err != nil {
		return err
	}
	w.inputs = append(w.inputs, irInput{"baseline_msccl", st, ir.Lower})
	stages, err := blink.New(env).StagePlans(strategy.AllReduce, 1<<20, ranks, -1)
	if err != nil {
		return err
	}
	for _, stage := range stages {
		for _, st := range stage {
			if st != nil && len(st.Participants()) >= 2 {
				w.inputs = append(w.inputs, irInput{"baseline_blink", st, ir.Lower})
			}
		}
	}
	return nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// lowerVerify lowers one strategy and proves the program, each in its own
// span; IR operations are the workload's unit of work.
func lowerVerify(r *run, in irInput) (*ir.Program, error) {
	var low *ir.Lowered
	var err error
	r.call("ir", "ir.lower_"+in.kind, func() int64 {
		if low, err = in.lower(in.st); err != nil {
			return 0
		}
		return int64(len(low.Program.Ops))
	})
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return low.Program, verify(r, in.kind, low.Program)
}

func verify(r *run, kind string, p *ir.Program) error {
	var err error
	r.call("ir", "ir.verify_"+kind, func() int64 {
		err = ir.Verify(p)
		return int64(len(p.Ops))
	})
	n := len(p.Ops)
	r.work += uint64(n)
	r.add("ir.program_ops", float64(n))
	if err != nil {
		return fmt.Errorf("a valid program was rejected: %w", err)
	}
	return nil
}

func (w *irVerify) warmup(r *run) error {
	_, err := lowerVerify(r, w.inputs[0])
	return err
}

func (w *irVerify) round(r *run) {
	var small *ir.Program
	for _, in := range w.inputs {
		r.op(in.kind, func() error {
			p, err := lowerVerify(r, in)
			switch in.kind {
			case "allreduce_small":
				small = p
			case "allreduce_big":
				// No engine runs here: the headline's simulated time is what
				// synthesis predicted for the plan it lowers and proves. It
				// is an input of this workload, not a product of the IR.
				r.set(virtualMS, w.planMS)
			}
			return err
		})
	}
	for _, s := range []struct {
		kind  string
		build func() (*ir.Program, error)
	}{
		{"ring_allreduce", func() (*ir.Program, error) { return ir.RingAllReduce(w.ring) }},
		{"ring_reducescatter", func() (*ir.Program, error) { return ir.RingReduceScatter(w.ring) }},
		{"tree_reduce", func() (*ir.Program, error) { return ir.BinomialTreeReduce(w.tree, 0) }},
	} {
		r.op(s.kind, func() error {
			var p *ir.Program
			var err error
			r.call("ir", "ir.schedule_"+s.kind, func() int64 {
				if p, err = s.build(); err != nil {
					return 0
				}
				return int64(len(p.Ops))
			})
			if err != nil {
				return err
			}
			return verify(r, s.kind, p)
		})
	}
	r.op("mutant", func() error {
		if small == nil {
			return errors.New("no verified program to mutate")
		}
		m := w.mutate(small, rngFor(r.seed, purposeMutant))
		var err error
		r.call("ir", "ir.verify_mutant", func() int64 {
			err = ir.Verify(m)
			return int64(len(m.Ops))
		})
		r.work += uint64(len(m.Ops))
		r.set("ir.mutant_ops", float64(len(m.Ops)))
		r.sum("ir.mutant", nameHash(m.Name))
		r.add("ir.mutants", 1)
		if err == nil {
			return fmt.Errorf("mutant %s was accepted", m.Name)
		}
		r.add("ir.mutants_rejected", 1)
		return nil
	})
}

// nameHash is FNV-1a over a program's name: which mutant the seed chose
// enters the digest through it.
func nameHash(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// dropTransfer removes one seed-chosen send, receive or reduce. Copies stay:
// dropping a root's own input-to-output copy is benign.
func dropTransfer(p *ir.Program, rng *rand.Rand) *ir.Program {
	i := rng.Intn(len(p.Ops))
	for p.Ops[i].Kind == ir.OpCopy {
		i = (i + 1) % len(p.Ops)
	}
	m := *p
	m.Name = fmt.Sprintf("%s/drop-%d", p.Name, i)
	m.Ops = append(append(make([]ir.Op, 0, len(p.Ops)-1), p.Ops[:i]...), p.Ops[i+1:]...)
	return &m
}

func (w *irVerify) layers(r *run, m map[string]float64) {
	m["topology.build_ms"] = r.setupMS("topology.build")
	m["ir.lower256_ms"] = r.spanMS("ir.lower_allreduce_small")
	m["ir.lower1024_ms"] = r.spanMS("ir.lower_allreduce_big")
	m["ir.verify256_ms"] = r.spanMS("ir.verify_allreduce_small")
	m["ir.verify1024_ms"] = r.spanMS("ir.verify_allreduce_big")
	irLayer(r, m)
	m["ir.mutants_rejected_ratio"] = ratio(r.val("ir.mutants_rejected"), r.val("ir.mutants"))
}

// irLayer fills the IR metrics every workload that lowers and verifies has:
// host time per IR operation over all ir spans, and the operations of one
// round.
func irLayer(r *run, m map[string]float64) {
	var total float64
	var ops int64
	for _, s := range r.rec.spans {
		if s.Layer == "ir" && s.Round >= 0 {
			total += float64(s.dur())
			if strings.HasPrefix(s.Name, "ir.verify") {
				ops += s.Count
			}
		}
	}
	m["ir.ns_per_op"] = ratio(total, float64(ops))
	m["ir.program_ops"] = r.val("ir.program_ops")
}
