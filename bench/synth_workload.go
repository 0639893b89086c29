package main

import (
	"fmt"
	"math"
	"time"

	"adapcc/internal/cluster"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// evalCharge is the virtual time synth bills per candidate evaluation
// (its unexported perEvalCost), so SolveTime / evalCharge counts them.
const evalCharge = 4 * time.Millisecond

// synthWorld is one homogeneous RDMA cluster with its cost table.
type synthWorld struct {
	graph *topology.Graph
	costs *synth.Costs
}

func buildSynthWorld(r *run, servers int) (synthWorld, error) {
	var w synthWorld
	var err error
	r.call("topology", "topology.build", func() int64 {
		var cl *topology.Cluster
		if cl, err = cluster.Homogeneous(topology.TransportRDMA, servers, 8); err != nil {
			return 0
		}
		if w.graph, err = cl.LogicalGraph(); err != nil {
			return 0
		}
		return int64(w.graph.NumNodes())
	})
	if err != nil {
		return w, err
	}
	w.costs = synth.NewCosts(w.graph, nil)
	return w, nil
}

// allReduceRequest is TestSynthScaleGuard's request: ExactM keeps four
// sub-collectives in the winner, so a patch has untouched ones to leave alone.
func allReduceRequest() synth.Request {
	return synth.Request{Primitive: strategy.AllReduce, Bytes: 64 << 20, Root: -1, M: 4, ExactM: true}
}

// synthScale is synthesis only, no engine: full search, sketch-pruned
// search, the three single-link patches and multi-root assembly, all uses of
// one shared-load evaluator.
type synthScale struct {
	d                 dims
	small, big        synthWorld
	rootsSmall, roots synthWorld

	// per round
	solve time.Duration
	plans []float64 // predicted completion times, ms
}

func (w *synthScale) setup(r *run) error {
	for _, s := range []struct {
		world   *synthWorld
		servers int
	}{{&w.small, w.d.synthSmall}, {&w.big, w.d.synthBig}, {&w.rootsSmall, w.d.rootsSmall}, {&w.roots, w.d.rootsBig}} {
		var err error
		if *s.world, err = buildSynthWorld(r, s.servers); err != nil {
			return err
		}
	}
	return nil
}

func (w *synthScale) warmup(r *run) error {
	_, err := synth.Synthesize(w.small.costs, allReduceRequest())
	return err
}

// produced accounts for one synthesis result: its evaluations are the
// workload's unit of work, its solve charge and predicted completion time
// feed solve_ms and plan_cost_ms, and its strategy must validate.
func (w *synthScale) produced(r *run, name string, g *topology.Graph, res *synth.Result) error {
	evals := int64(res.SolveTime / evalCharge)
	r.work += uint64(evals)
	r.add("synth.evals", float64(evals))
	w.solve += res.SolveTime
	w.plans = append(w.plans, ms(res.Eval.Time))
	r.set(name+".solve_ms", ms(res.SolveTime))
	r.set(name+".plan_ms", ms(res.Eval.Time))
	var err error
	r.call("strategy", "strategy.validate", func() int64 {
		err = res.Strategy.Validate(g)
		return int64(len(res.Strategy.SubCollectives))
	})
	if err != nil {
		return fmt.Errorf("strategy does not validate: %w", err)
	}
	return nil
}

func (w *synthScale) synth(r *run, name string, world synthWorld, f func() (*synth.Result, error)) (*synth.Result, error) {
	var res *synth.Result
	var err error
	r.call("synth", name, func() int64 {
		if res, err = f(); err != nil {
			return 0
		}
		return int64(res.SolveTime / evalCharge)
	})
	if err != nil {
		return nil, err
	}
	return res, w.produced(r, name, world.graph, res)
}

func (w *synthScale) round(r *run) {
	w.solve, w.plans = 0, nil
	for _, s := range []struct {
		size  string
		world synthWorld
	}{{"small", w.small}, {"big", w.big}} {
		// The planner lives for one round: the full search runs on cold
		// builders, and the sketch and the patches on the ones it left.
		pl := synth.NewPlanner()
		var full *synth.Result
		r.op("full_"+s.size, func() error {
			var err error
			full, err = w.synth(r, "synth.full_"+s.size, s.world, func() (*synth.Result, error) {
				return pl.Synthesize(s.world.costs, allReduceRequest())
			})
			return err
		})
		if full == nil {
			continue
		}
		r.op("sketch_"+s.size, func() error {
			req := allReduceRequest()
			req.Sketch = &synth.Sketch{Cut: synth.CutServer, Allow: []string{full.Variant}, ChunkBytes: 4 << 20}
			_, err := w.synth(r, "synth.sketch_"+s.size, s.world, func() (*synth.Result, error) {
				return pl.Synthesize(s.world.costs, req)
			})
			return err
		})
		w.patches(r, s.size, s.world, full)
	}
	for _, s := range []struct {
		name  string
		world synthWorld
		prim  strategy.Primitive
	}{
		{"reducescatter_small", w.rootsSmall, strategy.Reduce},
		{"allgather_small", w.rootsSmall, strategy.Broadcast},
		{"reducescatter_big", w.roots, strategy.Reduce},
	} {
		r.op("multiroot_"+s.name, func() error {
			_, err := w.synth(r, "synth.multiroot_"+s.name, s.world, func() (*synth.Result, error) {
				return synth.MultiRoot(s.world.costs, synth.Request{Primitive: s.prim, Bytes: 64 << 20})
			})
			return err
		})
	}
	r.set("solve_ms", ms(w.solve))
	r.set("plan_cost_ms", geomean(w.plans))
	r.set(virtualMS, geomean(w.plans))
}

// patches excludes, re-admits and down-weights one link of the full result:
// the first hop of a flow the run's seed chooses.
func (w *synthScale) patches(r *run, size string, world synthWorld, full *synth.Result) {
	rng := rngFor(r.seed, purposePatch)
	subs := full.Strategy.SubCollectives
	sub := subs[rng.Intn(len(subs))]
	flow := sub.Flows[rng.Intn(len(sub.Flows))]
	pair := [2]topology.NodeID{flow.Path[0], flow.Path[1]}
	onPair := func(from, to topology.NodeID) bool {
		return (from == pair[0] && to == pair[1]) || (from == pair[1] && to == pair[0])
	}
	r.set("synth.patch_"+size+".link", float64(pair[0])*1e6+float64(pair[1]))

	var excluded *synth.Result
	r.op("patch_exclude_"+size, func() error {
		var survivors *topology.Graph
		var costs *synth.Costs
		r.call("synth", "synth.remap", func() int64 {
			survivors = world.graph.CloneFilteredEdges(func(e topology.Edge) bool { return !onPair(e.From, e.To) })
			costs = world.costs.RemapTo(survivors)
			return 0 // the layer's count is evaluations
		})
		var stats synth.PatchStats
		var err error
		excluded, err = w.synth(r, "synth.patch_exclude_"+size, synthWorld{graph: survivors}, func() (*synth.Result, error) {
			res, st, err := synth.Patch(costs, full, synth.Delta{Kind: synth.DeltaExclude, Pair: pair})
			stats = st
			return res, err
		})
		if err != nil {
			return err
		}
		r.set("synth.patch_"+size+".subs_ratio", ratio(float64(stats.SubsPatched), float64(stats.SubsTotal)))
		if stats.SubsPatched < 1 {
			return fmt.Errorf("excluding a link the strategy crosses patched no sub-collective: %+v", stats)
		}
		return nil
	})
	if excluded == nil {
		return
	}
	r.op("patch_readmit_"+size, func() error {
		_, err := w.synth(r, "synth.patch_readmit_"+size, world, func() (*synth.Result, error) {
			res, _, err := synth.Patch(world.costs, excluded, synth.Delta{Kind: synth.DeltaReadmit, Pair: pair})
			return res, err
		})
		return err
	})
	r.op("patch_reweight_"+size, func() error {
		var soft *synth.Costs
		r.call("synth", "synth.reweight", func() int64 {
			soft = world.costs.Reweighted(func(from, to topology.NodeID) float64 {
				if onPair(from, to) {
					return 0.25
				}
				return 1
			})
			return 0
		})
		_, err := w.synth(r, "synth.patch_reweight_"+size, world, func() (*synth.Result, error) {
			res, _, err := synth.Patch(soft, full, synth.Delta{Kind: synth.DeltaReweight, Pair: pair})
			return res, err
		})
		return err
	})
}

func (w *synthScale) layers(r *run, m map[string]float64) {
	m["topology.build_ms"] = r.setupMS("topology.build")
	m["synth.full256_ms"] = r.spanMS("synth.full_small")
	m["synth.full1024_ms"] = r.spanMS("synth.full_big")
	m["synth.full_scaling"] = ratio(m["synth.full1024_ms"], m["synth.full256_ms"])
	m["synth.sketch1024_ms"] = r.spanMS("synth.sketch_big")
	m["synth.multiroot64_ms"] = r.spanMS("synth.multiroot_reducescatter_small")
	m["synth.multiroot128_ms"] = r.spanMS("synth.multiroot_reducescatter_big")
	m["synth.multiroot_scaling"] = ratio(m["synth.multiroot128_ms"], m["synth.multiroot64_ms"])
	m["synth.evals"] = r.val("synth.evals")
	m["synth.patch1024_ms"] = r.spanMS("synth.patch_exclude_big")
	m["synth.patch_subs_ratio"] = r.val("synth.patch_big.subs_ratio")
	m["solve_ms"] = r.val("solve_ms")
	m["plan_cost_ms"] = r.val("plan_cost_ms")
}

// geomean is the geometric mean of positive numbers, 0 for none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var logs float64
	for _, x := range v {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(v)))
}
