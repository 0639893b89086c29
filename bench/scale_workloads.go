package main

import (
	"errors"
	"fmt"
	"time"

	"adapcc/internal/chaos"
	"adapcc/internal/fabric"
	"adapcc/internal/grayfail"
	"adapcc/internal/scale"
	"adapcc/internal/topology"
)

// buildTopo generates a topology by name and, as scale.Run will, partitions
// it — from here, so that both costs show in the set-up budget.
func buildTopo(r *run, name string) (*topology.Topo, error) {
	var topo *topology.Topo
	var err error
	r.call("topology", "topology.build", func() int64 {
		var spec topology.Spec
		if spec, err = topology.ParseTopo(name); err != nil {
			return 0
		}
		if topo, err = spec.Build(); err != nil {
			return 0
		}
		return int64(topo.Graph.NumNodes())
	})
	if err != nil {
		return nil, err
	}
	r.call("topology", "topology.partition", func() int64 {
		var p *topology.Partition
		if p, err = topo.Partition(); err != nil {
			return 0
		}
		return int64(p.Ranks())
	})
	return topo, err
}

// sweepOp runs one scale.Run inside a span of the given layer and records
// its virtual-clock numbers under the span's name. A returned result has
// already passed scale.Run's closed-form checksum.
func sweepOp(r *run, layer, name string, opts scale.Options) (*scale.Result, error) {
	var res *scale.Result
	var err error
	r.call(layer, name, func() int64 {
		if res, err = scale.Run(opts); err != nil {
			return 0
		}
		return int64(res.Fired)
	})
	if err != nil {
		return nil, err
	}
	r.work += res.Fired
	r.set(name+".virtual_ms", ms(res.Elapsed))
	r.set(name+".events", float64(res.Fired))
	r.set(name+".windows", float64(res.Windows))
	r.sum(name+".checksum", res.Checksum)
	r.sample(name+".busy_over_wall", res.Speedup)
	return res, nil
}

// sameSimulation is the worker-count bit-identity check.
func sameSimulation(a, b *scale.Result) error {
	if a.Checksum != b.Checksum || a.Elapsed != b.Elapsed || a.Fired != b.Fired {
		return fmt.Errorf("worker count changed the simulation: %dw (%#x, %v, %d events) vs %dw (%#x, %v, %d events)",
			a.Workers, a.Checksum, a.Elapsed, a.Fired, b.Workers, b.Checksum, b.Elapsed, b.Fired)
	}
	return nil
}

// scaleLayer fills the scale.* metrics from a clean two-worker run named
// w2 and, where the workload has one, its one-worker twin w1.
func scaleLayer(r *run, m map[string]float64, w1, w2 string) {
	events, windows := r.val(w2+".events"), r.val(w2+".windows")
	m["scale.run_w2_ms"] = r.spanMS(w2)
	if w1 != "" {
		m["scale.run_w1_ms"] = r.spanMS(w1)
		m["scale.parallel_speedup"] = ratio(m["scale.run_w1_ms"], m["scale.run_w2_ms"])
	}
	m["scale.busy_over_wall"] = median(r.host[w2+".busy_over_wall"])
	m["scale.events"] = events
	m["scale.windows"] = windows
	m["scale.events_per_window"] = ratio(events, windows)
	m["scale.stall_ratio"] = r.val(w2 + ".stall_ratio")
	m["scale.ns_per_event"] = ratio(m["scale.run_w2_ms"]*1e6, events)
}

// stallRatio is the share of (window, domain) slots in which the domain had
// no event inside the lookahead horizon.
func stallRatio(res *scale.Result) float64 {
	var stalls uint64
	for _, s := range res.Stats {
		stalls += s.Stalls
	}
	return ratio(float64(stalls), float64(res.Windows)*float64(len(res.Stats)))
}

// scaleSweep is the fault-free thousand-rank AllReduce: sim.Parallel windows
// and fabric.Sharded do all the work; synthesis, IR, the congestion plane,
// the detectors and recovery are bypassed.
type scaleSweep struct {
	d    dims
	topo *topology.Topo
}

func (w *scaleSweep) setup(r *run) error {
	var err error
	w.topo, err = buildTopo(r, w.d.sweepTopo)
	return err
}

func (w *scaleSweep) opts(r *run, workers int) scale.Options {
	return scale.Options{Topo: w.topo, Workers: workers, Seed: derive(r.seed, purposeData)}
}

func (w *scaleSweep) warmup(r *run) error {
	_, err := scale.Run(w.opts(r, 1))
	return err
}

func (w *scaleSweep) round(r *run) {
	var one *scale.Result
	r.op("run_w1", func() error {
		var err error
		one, err = sweepOp(r, "scale", "scale.run_w1", w.opts(r, 1))
		return err
	})
	r.op("run_w2", func() error {
		two, err := sweepOp(r, "scale", "scale.run_w2", w.opts(r, 2))
		if err != nil {
			return err
		}
		r.set("scale.run_w2.stall_ratio", stallRatio(two))
		r.set(virtualMS, ms(two.Elapsed))
		if one == nil {
			return errors.New("no one-worker run to compare with")
		}
		return sameSimulation(one, two)
	})
}

func (w *scaleSweep) layers(r *run, m map[string]float64) {
	m["topology.build_ms"] = r.setupMS("topology.build")
	m["topology.partition_ms"] = r.setupMS("topology.partition")
	scaleLayer(r, m, "scale.run_w1", "scale.run_w2")
}

// stormSeed is the Options.Seed of every congested run. Under Congest the
// seed keys the ECMP flow hashes, so another seed is another traffic matrix:
// measured on this box, seeds 1-4 cost 5.0, 5.0, 3.3 and 2.7 s of host time
// for the same 3.06 M events at 1024 ranks. That sensitivity is ROADMAP
// anomaly 1 itself; a benchmark that sampled it per run could resolve
// nothing else, so the storm keeps TestCongestGuard's seed and the run's
// -seed reaches the chaos schedule, the link-down runs and the clean run.
const stormSeed = 1

// stormSpec is CongestSpec exactly as TestCongestGuard sets it.
func stormSpec(adaptive bool) *scale.CongestSpec {
	return &scale.CongestSpec{
		Adaptive: adaptive,
		Fabric:   fabric.CongestOptions{PauseScale: 0.002, PFCThreshold: 8 << 20},
		Detect:   grayfail.Options{DegradeBelow: 0.05, RecoverAbove: 0.5},
	}
}

// faultWorld is one topology with the edge its fault hits: the stormed spine
// port of a fat-tree, or the NVLink a link-down run kills on a rail topology.
type faultWorld struct {
	topo *topology.Topo
	edge topology.EdgeID
}

// adaptStorm is the scale tier under faults: the congestion plane, the
// gray-failure detector, chaos and scale's reroute, deadline and retransmit
// logic on top of the engine scale_sweep measures alone.
type adaptStorm struct {
	d                    dims
	clean                *topology.Topo
	stormBig, stormSmall faultWorld
	downBig, downSmall   faultWorld
}

func (w *adaptStorm) setup(r *run) error {
	var err error
	if w.clean, err = buildTopo(r, w.d.sweepTopo); err != nil {
		return err
	}
	for _, s := range []struct {
		world *faultWorld
		name  string
		storm bool
	}{
		{&w.stormBig, w.d.stormBig, true}, {&w.stormSmall, w.d.stormSmall, true},
		{&w.downBig, w.d.downBig, false}, {&w.downSmall, w.d.downSmall, false},
	} {
		if s.world.topo, err = buildTopo(r, s.name); err != nil {
			return err
		}
		if s.storm {
			r.call("congest", "scale.probe_spine", func() int64 {
				s.world.edge, err = scale.ProbeSpineEdge(scale.Options{Topo: s.world.topo, Seed: stormSeed})
				return 1
			})
		} else {
			s.world.edge, err = firstNVLink(s.world.topo)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// firstNVLink is the first hop from rank 0 to its ring successor, rank 1, on
// the same server: a fault there is local to rank 0's domain.
func firstNVLink(topo *topology.Topo) (topology.EdgeID, error) {
	g := topo.Graph
	g0, ok0 := g.GPUByRank(0)
	g1, ok1 := g.GPUByRank(1)
	if !ok0 || !ok1 {
		return 0, errors.New("no ranks 0 and 1")
	}
	path := g.ShortestPath(g0, g1)
	if len(path) < 2 {
		return 0, errors.New("no route from rank 0 to rank 1")
	}
	ge, ok := g.EdgeBetween(path[0], path[1])
	if !ok {
		return 0, errors.New("no first-hop edge")
	}
	return ge, nil
}

func (w *adaptStorm) storm(r *run, name string, world faultWorld, adaptive bool) (*scale.Result, error) {
	cs := chaos.Spec{Seed: derive(r.seed, purposeChaos), Faults: []chaos.Fault{
		{Kind: chaos.PFCStorm, Start: 0, Edge: world.edge, Rank: -1, Pod: -1}, // Dur 0: permanent
	}}
	res, err := sweepOp(r, "congest", name, scale.Options{
		Topo: world.topo, Workers: 2, Seed: stormSeed, Iterations: w.d.stormIters,
		Congest: stormSpec(adaptive), Chaos: &cs,
	})
	if err != nil {
		return nil, err
	}
	cg := res.Congest
	switch {
	case cg == nil || cg.Degraded == 0:
		return nil, fmt.Errorf("permanent storm drew no degraded verdict: %+v", cg)
	case adaptive && (cg.PathReroutes == 0 || cg.Adaptations == 0):
		return nil, fmt.Errorf("adaptive run shows no adaptation: %+v", *cg)
	case !adaptive && cg.PathReroutes != 0:
		return nil, fmt.Errorf("frozen run rerouted: %+v", *cg)
	case len(res.IterDurations) != w.d.stormIters:
		return nil, fmt.Errorf("%d iteration durations, want %d", len(res.IterDurations), w.d.stormIters)
	}
	// The steady-state tail is the worst round of the second half; detection,
	// reroute and the drained backlog all land in the first.
	var tail time.Duration
	for _, d := range res.IterDurations[w.d.stormIters/2:] {
		tail = max(tail, d)
	}
	r.set(name+".tail_ms", ms(tail))
	r.set(name+".tta_ms", ms(cg.TimeToAdaptMax))
	r.set(name+".verdicts", float64(cg.Degraded+cg.Restored+cg.Condemned))
	r.set(name+".reroutes", float64(cg.PathReroutes))
	r.set(name+".adaptations", float64(cg.Adaptations))
	r.set(name+".pause_frames", float64(cg.PauseFrames))
	r.set(name+".max_queue_mb", float64(cg.MaxQueueBytes)/(1<<20))
	return res, nil
}

func (w *adaptStorm) down(r *run, name string, world faultWorld, workers int) (*scale.Result, error) {
	cs := chaos.Spec{Seed: derive(r.seed, purposeChaos), Faults: []chaos.Fault{
		{Kind: chaos.LinkDown, Start: 0, Edge: world.edge, Rank: -1}, // permanent
	}}
	res, err := sweepOp(r, "recover", name, scale.Options{
		Topo: world.topo, Workers: workers, Seed: derive(r.seed, purposeData), Chaos: &cs,
	})
	if err != nil {
		return nil, err
	}
	rec := res.Recovery
	switch {
	case rec == nil || rec.DomainLocal == 0:
		return nil, fmt.Errorf("no domain-local recovery recorded: %+v", rec)
	case rec.Boundary != 0 || res.RecoveryEvents.Boundary != 0:
		return nil, fmt.Errorf("intra-domain link kill escalated to boundary recovery: %+v", *rec)
	case rec.TimeToRecoverMax <= 0:
		return nil, fmt.Errorf("recovered with non-positive time to recover: %+v", *rec)
	}
	r.set(name+".ttr_ms", ms(rec.TimeToRecoverMax))
	r.set(name+".deadlines", float64(rec.Deadlines))
	r.set(name+".retransmits", float64(rec.Retransmits))
	r.set(name+".reroutes", float64(rec.Reroutes))
	r.set(name+".domain_local_ratio", ratio(float64(rec.DomainLocal), float64(rec.Recoveries)))
	return res, nil
}

func (w *adaptStorm) warmup(r *run) error {
	_, err := w.storm(r, "warmup", w.stormSmall, true)
	return err
}

func (w *adaptStorm) round(r *run) {
	var adaptive *scale.Result
	r.op("storm_big_adaptive", func() error {
		var err error
		adaptive, err = w.storm(r, "congest.adaptive_big", w.stormBig, true)
		if err == nil {
			r.set(virtualMS, ms(adaptive.Elapsed))
		}
		return err
	})
	r.op("storm_big_frozen", func() error {
		frozen, err := w.storm(r, "congest.frozen_big", w.stormBig, false)
		if err == nil && adaptive != nil && frozen.Checksum != adaptive.Checksum {
			err = fmt.Errorf("frozen and adaptive sums differ: %#x vs %#x", frozen.Checksum, adaptive.Checksum)
		}
		return err
	})
	r.op("storm_small_adaptive", func() error {
		_, err := w.storm(r, "congest.adaptive_small", w.stormSmall, true)
		return err
	})
	r.op("storm_small_frozen", func() error {
		_, err := w.storm(r, "congest.frozen_small", w.stormSmall, false)
		return err
	})
	r.op("down_big", func() error {
		_, err := w.down(r, "recover.run_big", w.downBig, 2)
		return err
	})
	var small *scale.Result
	r.op("down_small", func() error {
		var err error
		small, err = w.down(r, "recover.run_small", w.downSmall, 2)
		return err
	})
	r.op("down_small_w1", func() error {
		one, err := w.down(r, "recover.run_small_w1", w.downSmall, 1)
		if err != nil || small == nil {
			return err
		}
		if *one.Recovery != *small.Recovery {
			return fmt.Errorf("worker count changed the recovery fold: %+v vs %+v", *one.Recovery, *small.Recovery)
		}
		return sameSimulation(one, small)
	})
	// The fault-free run on the link-down topology is the reference that
	// turns host time per event into an overhead ratio within one process.
	r.op("clean", func() error {
		res, err := sweepOp(r, "scale", "scale.run_w2", scale.Options{
			Topo: w.clean, Workers: 2, Seed: derive(r.seed, purposeData),
		})
		if err == nil {
			r.set("scale.run_w2.stall_ratio", stallRatio(res))
		}
		return err
	})
}

func (w *adaptStorm) layers(r *run, m map[string]float64) {
	m["topology.build_ms"] = r.setupMS("topology.build")
	m["topology.partition_ms"] = r.setupMS("topology.partition")
	scaleLayer(r, m, "", "scale.run_w2")

	const ab, fb, as = "congest.adaptive_big", "congest.frozen_big", "congest.adaptive_small"
	m["congest.adaptive1024_ms"] = r.spanMS(ab)
	m["congest.frozen1024_ms"] = r.spanMS(fb)
	m["congest.adaptive_over_frozen_wall"] = ratio(m["congest.adaptive1024_ms"], m["congest.frozen1024_ms"])
	m["congest.ns_per_event"] = ratio(m["congest.adaptive1024_ms"]*1e6, r.val(ab+".events"))
	m["congest.overhead_per_event"] = ratio(m["congest.ns_per_event"], m["scale.ns_per_event"])
	m["congest.verdicts"] = r.val(ab + ".verdicts")
	m["congest.reroutes"] = r.val(ab + ".reroutes")
	m["congest.adaptations"] = r.val(ab + ".adaptations")
	m["congest.pause_frames"] = r.val(ab + ".pause_frames")
	m["congest.max_queue_mb"] = r.val(ab + ".max_queue_mb")
	m["congest.tta_scaling"] = ratio(r.val(ab+".tta_ms"), r.val(as+".tta_ms"))
	m["congest.tail_gain"] = ratio(r.val(fb+".tail_ms"), r.val(ab+".tail_ms"))

	const db, ds = "recover.run_big", "recover.run_small"
	m["recover.run1024_ms"] = r.spanMS(db)
	m["recover.overhead_vs_clean"] = ratio(m["recover.run1024_ms"], m["scale.run_w2_ms"])
	m["recover.ttr_scaling"] = ratio(r.val(db+".ttr_ms"), r.val(ds+".ttr_ms"))
	m["recover.deadlines"] = r.val(db + ".deadlines")
	m["recover.retransmits"] = r.val(db + ".retransmits")
	m["recover.reroutes"] = r.val(db + ".reroutes")
	m["recover.domain_local_ratio"] = r.val(db + ".domain_local_ratio")

	m["iter_tail_ms"] = r.val(ab + ".tail_ms")
	m["time_to_adapt_ms"] = r.val(ab + ".tta_ms")
	m["ttr_ms"] = r.val(db + ".ttr_ms")
}
