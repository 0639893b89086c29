package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/baseline/nccl"
	"adapcc/internal/cloudtrace"
	"adapcc/internal/cluster"
	"adapcc/internal/collective"
	"adapcc/internal/core"
	"adapcc/internal/ir"
	"adapcc/internal/payload"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
	"adapcc/internal/train"
)

// volatility amplifies the cloud trace's bandwidth excursions during the
// training stage: Fig. 18a's most unstable setting.
const volatility = 0.9

// paperReq is one phantom collective of the round.
type paperReq struct {
	prim strategy.Primitive
	size int // index into dims.paperMiB
	root int
}

func (q paperReq) name() string { return fmt.Sprintf("%v_%d", q.prim, q.size) }

// paperTestbed is the paper's 24-GPU heterogeneous testbed, what
// `adapcc-bench -experiment all` exercises: the monolithic executor path
// (collective + sim.Engine + fabric.Fabric + device + payload) does most of
// the work; small-graph synthesis, the strategy cache, training, relay and
// the NCCL baseline each do a little.
type paperTestbed struct {
	d     dims
	cl    *topology.Cluster
	reqs  []paperReq        // in the seed's order
	dense map[int][]float32 // one dense 1 MiB tensor per rank
	want  []float32         // their element-wise sum

	// per round
	env     *backend.Env
	a       *core.AdapCC
	lookups int
	hits    int
	algbw   []float64 // AdapCC algorithm bandwidth per phantom collective, GB/s
	simMS   []float64 // and its simulated time, ms
}

const denseBytes = 1 << 20

func (w *paperTestbed) setup(r *run) error {
	var err error
	r.call("topology", "topology.build", func() int64 {
		w.cl, err = cluster.Testbed(topology.TransportRDMA)
		return 1
	})
	if err != nil {
		return err
	}
	w.reqs = w.reqs[:0]
	for _, p := range []strategy.Primitive{strategy.Reduce, strategy.AllReduce, strategy.AlltoAll} {
		for size := range w.d.paperMiB {
			root := -1
			if p == strategy.Reduce {
				root = 0
			}
			w.reqs = append(w.reqs, paperReq{p, size, root})
		}
	}
	rngFor(r.seed, purposeOrder).Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })

	// Small integers keep every float32 partial sum exact, whatever order
	// the strategy reduces in.
	rng := rngFor(r.seed, purposeData)
	ranks := w.cl.NumGPUs()
	w.dense = make(map[int][]float32, ranks)
	w.want = make([]float32, denseBytes/4)
	for rank := 0; rank < ranks; rank++ {
		base := float32(rng.Intn(16))
		v := make([]float32, denseBytes/4)
		for i := range v {
			v[i] = base + float32(i%7)
			w.want[i] += v[i]
		}
		w.dense[rank] = v
	}
	return nil
}

func (w *paperTestbed) warmup(r *run) error { return w.collectives(r) }

func (w *paperTestbed) round(r *run) {
	r.op("round", func() error {
		return errors.Join(w.collectives(r), w.training(r))
	})
}

func (w *paperTestbed) bytes(q paperReq) int64 { return w.d.paperMiB[q.size] << 20 }

// drain runs the engine until the started collective completed. This is
// where the executor, the fabric, the devices and the payload plane spend
// their time; from outside they are one span, counted in events.
func (w *paperTestbed) drain(r *run, name string) {
	r.call("collective", name, func() int64 {
		before := w.env.Engine.Fired()
		w.env.Engine.Run()
		return int64(w.env.Engine.Fired() - before)
	})
}

// viaCore runs one request through core.Run and reports whether the
// strategy cache already held its plan.
func (w *paperTestbed) viaCore(r *run, b backend.Backend, layer, drain string, req backend.Request) (collective.Result, bool, error) {
	var res collective.Result
	done := false
	req.OnDone = func(cr collective.Result) { res, done = cr, true }
	cached := w.a.CachedStrategies()
	var err error
	r.call(layer, layer+".run", func() int64 {
		err = b.Run(req)
		return 1
	})
	if err != nil {
		return res, false, err
	}
	hit := w.a.CachedStrategies() == cached
	w.drain(r, drain)
	if !done {
		return res, hit, errors.New("collective never completed")
	}
	return res, hit, nil
}

// lookup counts one strategy-cache lookup and checks it went as expected.
func (w *paperTestbed) lookup(hit, want bool, what string) error {
	w.lookups++
	if hit {
		w.hits++
	}
	if hit != want {
		return fmt.Errorf("%s: strategy cache hit = %v, want %v", what, hit, want)
	}
	return nil
}

// exec starts a strategy on the executor directly and drains the engine,
// as one collective span.
func (w *paperTestbed) exec(r *run, name string, st *strategy.Strategy) (collective.Result, error) {
	var res collective.Result
	var err error
	done := false
	var before uint64
	if r.rec.on {
		before = heapObjects()
	}
	r.call("collective", name, func() int64 {
		start := w.env.Engine.Fired()
		err = w.env.Exec.Run(collective.Op{Strategy: st, Mode: payload.Phantom, OnDone: func(cr collective.Result) { res, done = cr, true }})
		if err != nil {
			return 0
		}
		w.env.Engine.Run()
		return int64(w.env.Engine.Fired() - start)
	})
	if err != nil {
		return res, err
	}
	if !done {
		return res, errors.New("collective never completed")
	}
	if r.rec.on {
		r.sample("collective.allocs", float64(heapObjects()-before))
	}
	r.add("collective.chunk_hops", float64(res.Stats.ChunkHops))
	return res, nil
}

// heapObjects is the cumulative count of heap allocations, read without
// stopping the world (runtime.ReadMemStats would, twice per collective).
func heapObjects() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// collectives is the first half of a round: a fresh environment and AdapCC
// instance, every phantom collective cold and warm through core and once
// through the direct synth, lower, verify, execute chain, the two multi-root
// collectives, the dense one and the NCCL baseline.
func (w *paperTestbed) collectives(r *run) error {
	var errs []error
	var err error
	r.call("core", "core.new", func() int64 {
		if w.env, err = backend.NewEnv(w.cl, derive(r.seed, purposeEnv)); err != nil {
			return 0
		}
		w.a, err = core.New(w.env, core.WithVerify())
		return 1
	})
	if err != nil {
		return err
	}
	ready := false
	r.call("core", "core.setup", func() int64 {
		w.a.Setup(func() { ready = true })
		w.env.Engine.Run()
		return int64(w.env.Engine.Fired())
	})
	if !ready {
		return errors.New("AdapCC set-up never completed")
	}
	r.set("core.setup_virtual_ms", ms(w.env.Engine.Now()))
	w.lookups, w.hits, w.algbw, w.simMS = 0, 0, w.algbw[:0], w.simMS[:0]
	execFired := w.env.Engine.Fired()

	var nccls, adapccs [len(w.d.paperMiB)]time.Duration // AllReduce virtual times by size
	for _, q := range w.reqs {
		req := backend.Request{Primitive: q.prim, Bytes: w.bytes(q), Root: q.root, Mode: payload.Phantom}
		var cold time.Duration
		for i := 0; i < 3; i++ {
			res, hit, err := w.viaCore(r, w.a, "core", "collective.drain", req)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s via core: %w", q.name(), err))
				break
			}
			errs = append(errs, w.lookup(hit, i > 0, q.name()))
			if i == 0 {
				cold = res.Elapsed
				r.set("virtual."+q.name()+"_ms", ms(cold))
				w.algbw = append(w.algbw, collective.AlgoBandwidthBps(req.Bytes, cold)/1e9)
				w.simMS = append(w.simMS, ms(cold))
				if q.prim == strategy.AllReduce {
					adapccs[q.size] = cold
				}
			} else if res.Elapsed != cold {
				errs = append(errs, fmt.Errorf("%s: warm run took %v of virtual time, cold %v", q.name(), res.Elapsed, cold))
			}
		}
		cached := w.a.CachedStrategies()
		r.call("core", "core.cache_hit", func() int64 {
			_, err = w.a.Strategy(q.prim, req.Bytes, nil, nil, q.root)
			return 1
		})
		errs = append(errs, err, w.lookup(w.a.CachedStrategies() == cached, true, q.name()+" lookup"))

		errs = append(errs, w.direct(r, q, cold))
	}
	w.multiRoots(r, &errs)

	// The one dense operation: real float32 tensors, sums checked.
	res, hit, err := w.viaCore(r, w.a, "core", "collective.drain_dense", backend.Request{
		Primitive: strategy.AllReduce, Bytes: denseBytes, Root: -1, Inputs: w.dense,
	})
	if err != nil {
		errs = append(errs, fmt.Errorf("dense allreduce: %w", err))
	} else {
		errs = append(errs, w.lookup(hit, true, "dense allreduce"), w.checkSums(res))
	}

	b := nccl.New(w.env)
	for size, mib := range w.d.paperMiB {
		res, _, err := w.viaCore(r, b, "baseline", "collective.drain", backend.Request{
			Primitive: strategy.AllReduce, Bytes: mib << 20, Root: -1, Mode: payload.Phantom,
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("nccl allreduce %d MiB: %w", mib, err))
			continue
		}
		nccls[size] = res.Elapsed
		r.set(fmt.Sprintf("virtual.nccl_allreduce_%d_ms", size), ms(res.Elapsed))
	}
	var bw, speedup []float64
	for size, n := range nccls {
		if a := adapccs[size]; n > 0 && a > 0 {
			bw = append(bw, collective.AlgoBandwidthBps(w.d.paperMiB[size]<<20, n)/1e9)
			speedup = append(speedup, float64(n)/float64(a))
		}
	}
	r.set("baseline.nccl_algbw_gbps", geomean(bw))
	r.set("baseline.speedup_vs_nccl", geomean(speedup))
	r.set("algbw_gbps", geomean(w.algbw))
	r.set(virtualMS, geomean(w.simMS))
	r.set("core.cache_hit_ratio", ratio(float64(w.hits), float64(w.lookups)))
	r.set("paper.events", float64(w.env.Engine.Fired()-execFired))
	r.work += w.env.Engine.Fired()
	return errors.Join(errs...)
}

// direct runs the request's chain outside core: synth.Synthesize on the
// instance's cost table, ir.Lower, ir.Verify, then the executor. Its
// virtual time must be the one core measured for the same request.
func (w *paperTestbed) direct(r *run, q paperReq, viaCore time.Duration) error {
	var sr *synth.Result
	var err error
	r.call("synth", "synth.miss", func() int64 {
		sr, err = synth.Synthesize(w.a.Costs(), synth.Request{
			Primitive: q.prim, Bytes: w.bytes(q), Root: q.root, M: synth.DefaultM,
		})
		if err != nil {
			return 0
		}
		return int64(sr.SolveTime / evalCharge)
	})
	if err != nil {
		return fmt.Errorf("%s: synthesize: %w", q.name(), err)
	}
	r.add("synth.evals", float64(sr.SolveTime/evalCharge))
	if err := sr.Strategy.Validate(w.env.Graph); err != nil {
		return fmt.Errorf("%s: strategy does not validate: %w", q.name(), err)
	}
	if _, err := lowerVerify(r, irInput{"direct", sr.Strategy, ir.Lower}); err != nil {
		return fmt.Errorf("%s: %w", q.name(), err)
	}
	name := "collective.exec"
	if q.prim == strategy.AllReduce {
		name = fmt.Sprintf("collective.exec_allreduce_%d", q.size)
	}
	res, err := w.exec(r, name, sr.Strategy)
	if err != nil {
		return fmt.Errorf("%s: execute: %w", q.name(), err)
	}
	if res.Elapsed != viaCore {
		return fmt.Errorf("%s: direct chain took %v of virtual time, core %v", q.name(), res.Elapsed, viaCore)
	}
	return nil
}

// multiRoots runs ReduceScatter and AllGather as single multi-root
// assemblies, phantom: core's own entry points for them are dense-only.
func (w *paperTestbed) multiRoots(r *run, errs *[]error) {
	for _, s := range []struct {
		kind  string
		prim  strategy.Primitive
		lower lowering
	}{{"reducescatter", strategy.Reduce, ir.LowerReduceScatter}, {"allgather", strategy.Broadcast, ir.LowerAllGather}} {
		var sr *synth.Result
		var err error
		r.call("synth", "synth.multiroot", func() int64 {
			if sr, err = synth.MultiRoot(w.a.Costs(), synth.Request{Primitive: s.prim, Bytes: w.d.rootsMiB << 20}); err != nil {
				return 0
			}
			return int64(sr.SolveTime / evalCharge)
		})
		if err != nil {
			*errs = append(*errs, fmt.Errorf("%s: %w", s.kind, err))
			continue
		}
		if _, err := lowerVerify(r, irInput{"direct", sr.Strategy, s.lower}); err != nil {
			*errs = append(*errs, fmt.Errorf("%s: %w", s.kind, err))
			continue
		}
		res, err := w.exec(r, "collective.exec", sr.Strategy)
		if err != nil {
			*errs = append(*errs, fmt.Errorf("%s: %w", s.kind, err))
			continue
		}
		r.set("virtual."+s.kind+"_ms", ms(res.Elapsed))
		w.algbw = append(w.algbw, collective.AlgoBandwidthBps(w.d.rootsMiB<<20, res.Elapsed)/1e9)
		w.simMS = append(w.simMS, ms(res.Elapsed))
	}
}

func (w *paperTestbed) checkSums(res collective.Result) error {
	if len(res.Outputs) != len(w.dense) {
		return fmt.Errorf("dense allreduce: %d ranks hold a result, want %d", len(res.Outputs), len(w.dense))
	}
	for rank, out := range res.Outputs {
		if len(out) != len(w.want) {
			return fmt.Errorf("dense allreduce: rank %d holds %d elements, want %d", rank, len(out), len(w.want))
		}
		for i, v := range out {
			if v != w.want[i] {
				return fmt.Errorf("dense allreduce: rank %d element %d is %v, want %v", rank, i, v, w.want[i])
			}
		}
	}
	return nil
}

// training is the second half of a round: VGG16 under the adaptive driver
// with one reconstruction half-way, and under NCCL's wait-for-all driver,
// each on its own environment replaying the same volatile cloud trace.
func (w *paperTestbed) training(r *run) error {
	adaptive, relayed, err := w.train(r, true)
	if err != nil {
		return fmt.Errorf("adaptive training: %w", err)
	}
	baseline, _, err := w.train(r, false)
	if err != nil {
		return fmt.Errorf("nccl training: %w", err)
	}
	r.set("train_samples_per_s", adaptive.Throughput())
	r.set("train.virtual_iter_ms", ms(adaptive.Makespan)/float64(len(adaptive.Iters)))
	r.set("train.speedup_vs_nccl", ratio(adaptive.Throughput(), baseline.Throughput()))
	r.set("relay.relayed_ratio", relayed)
	return nil
}

func (w *paperTestbed) train(r *run, adaptive bool) (*train.Stats, float64, error) {
	env, err := backend.NewEnv(w.cl, derive(r.seed, purposeTrain))
	if err != nil {
		return nil, 0, err
	}
	traces := cloudtrace.PerServerTraces(derive(r.seed, purposeCloud), len(w.cl.Servers), volatility,
		cloudtrace.GenOptions{Duration: 12 * time.Hour, Step: 30 * time.Second})
	app := cloudtrace.ApplyPerServer(env.Fabric, traces)
	defer app.Stop()

	vgg := train.VGG16()
	opts := []train.Option{train.WithSeed(derive(r.seed, purposeTrain))}
	var driver train.Driver
	var adaptiveDriver *train.AdaptiveDriver
	name := "train.nccl"
	if adaptive {
		name = "train.adaptive"
		// No WithVerify here: the verifier rejects the partial strategies
		// the relay coordinator asks for (ready ranks plus relays), which
		// the README records as a finding of this benchmark.
		a, err := core.New(env)
		if err != nil {
			return nil, 0, err
		}
		a.Setup(nil)
		env.Engine.Run()
		if adaptiveDriver, err = train.NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, vgg.ParamBytes, nil, nil); err != nil {
			return nil, 0, err
		}
		driver = adaptiveDriver
		opts = append(opts, train.WithReprofile(w.d.trainIters/2, func(done func()) {
			id := r.rec.begin("core", "core.reconstruct")
			a.Reconstruct(func(overhead time.Duration) {
				r.rec.end(id, 1)
				r.set("core.reconstruct_virtual_ms", ms(overhead))
				done()
			})
		}))
	} else {
		driver = train.NewWaitAllDriver(env, train.NCCLPlanner(env), strategy.AllReduce, vgg.ParamBytes, env.AllRanks())
	}
	tr, err := train.New(vgg, env, w.cl, driver, w.d.trainIters, opts...)
	if err != nil {
		return nil, 0, err
	}
	var stats *train.Stats
	r.call("train", name, func() int64 {
		tr.Start(func(s *train.Stats) { stats = s; app.Stop() })
		env.Engine.Run()
		return int64(w.d.trainIters)
	})
	r.work += env.Engine.Fired()
	if stats == nil {
		return nil, 0, errors.New("training never completed")
	}
	relayed := 0.0
	if adaptive {
		st := adaptiveDriver.Coordinator().Stats()
		relayed = ratio(float64(st.PartialRuns), float64(st.Iterations))
	}
	return stats, relayed, nil
}

func (w *paperTestbed) layers(r *run, m map[string]float64) {
	m["topology.build_ms"] = r.setupMS("topology.build")
	m["core.setup_ms"] = r.spanMS("core.setup")
	m["core.setup_virtual_ms"] = r.val("core.setup_virtual_ms")
	m["core.cache_hit_us"] = 1e3 * r.spanMS("core.cache_hit")
	m["core.cache_hit_ratio"] = r.val("core.cache_hit_ratio")
	m["core.reconstruct_ms"] = r.spanMS("core.reconstruct")
	m["synth.miss_ms_p50"] = r.spanMS("synth.miss")
	m["synth.evals"] = r.val("synth.evals")
	irLayer(r, m)

	m["collective.exec1m_ms"] = r.spanMS("collective.exec_allreduce_0")
	m["collective.exec32m_ms"] = r.spanMS("collective.exec_allreduce_1")
	m["collective.exec128m_ms"] = r.spanMS("collective.exec_allreduce_2")
	m["collective.dense1m_ms"] = r.spanMS("collective.drain_dense")
	total, events := r.spanTotals("collective.exec")
	rounds := float64(r.tracedRounds())
	m["collective.events"] = ratio(float64(events), rounds)
	m["collective.chunk_hops"] = r.val("collective.chunk_hops")
	m["collective.ns_per_event"] = ratio(float64(total), float64(events))
	m["collective.ns_per_chunk_hop"] = ratio(float64(total), rounds*m["collective.chunk_hops"])
	m["collective.allocs_per_op"] = median(r.host["collective.allocs"])

	m["baseline.nccl_algbw_gbps"] = r.val("baseline.nccl_algbw_gbps")
	m["baseline.speedup_vs_nccl"] = r.val("baseline.speedup_vs_nccl")
	m["train.iter_us"] = 1e3 * r.spanMS("train.adaptive") / float64(w.d.trainIters)
	m["train.virtual_iter_ms"] = r.val("train.virtual_iter_ms")
	m["train.speedup_vs_nccl"] = r.val("train.speedup_vs_nccl")
	m["relay.relayed_ratio"] = r.val("relay.relayed_ratio")
	m["algbw_gbps"] = r.val("algbw_gbps")
	m["train_samples_per_s"] = r.val("train_samples_per_s")
}
