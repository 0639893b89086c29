package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run repeats the workload's set-up and reports the median as setup_s, so
// one page-fault storm does not decide it: at least minSetupReps times, and
// a set-up of milliseconds, whose timing is the noisiest, up to maxSetupReps
// times while the repetitions together stay under cheapSetup.
const (
	minSetupReps = 3
	maxSetupReps = 15
	cheapSetup   = 500 * time.Millisecond
)

// workload is one fixed, seed-derived operation list. A closed loop with
// one client drives it: the next operation starts when the previous one
// returned.
type workload interface {
	// setup builds everything a user pays once: topologies, cost tables,
	// the strategies a later stage consumes.
	setup(r *run) error
	// warmup runs one untimed operation so lazy initialisation and the
	// first heap growth stay out of the samples.
	warmup(r *run) error
	// round runs the operation list once. Every round of a run gets the
	// same inputs, so every virtual-clock number and count repeats.
	round(r *run)
	// layers derives the per-layer metrics of a traced run.
	layers(r *run, m map[string]float64)
}

// virtualMS is the number every round sets to the simulated, or where no
// engine runs predicted, time of its headline result. It is the per-layer
// virtual_ms_per_op, and its reciprocal the end-to-end virtual_ops_per_s.
const virtualMS = "virtual_ms_per_op"

// workloadDef names a workload in BENCHMARK.json's order.
type workloadDef struct {
	name     string
	headline string // op kind behind op_ms_p50
	make     func(d dims) workload
}

var workloads = []workloadDef{
	{"paper_testbed", "round", func(d dims) workload { return &paperTestbed{d: d} }},
	{"scale_sweep", "run_w2", func(d dims) workload { return &scaleSweep{d: d} }},
	{"adapt_storm", "storm_big_adaptive", func(d dims) workload { return &adaptStorm{d: d} }},
	{"synth_scale", "full_big", func(d dims) workload { return &synthScale{d: d} }},
	{"ir_verify", "allreduce_big", func(d dims) workload { return &irVerify{d: d, mutate: dropTransfer} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// span is one call from bench/ into a layer's public function.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // host time since the run's epoch
	End    time.Duration
	Parent int   // index of the enclosing span, -1 at the top
	Round  int   // -1 during set-up
	Count  int64 // units the call processed: events, IR ops, evaluations
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder appends spans to memory while on and does nothing while off.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int
	round int
}

// begin opens a span and returns its handle (-1 while off).
func (rec *recorder) begin(layer, name string) int {
	if !rec.on {
		return -1
	}
	parent := -1
	if n := len(rec.open); n > 0 {
		parent = rec.open[n-1]
	}
	id := len(rec.spans)
	rec.spans = append(rec.spans, span{Name: name, Layer: layer, Parent: parent, Round: rec.round, Start: time.Since(rec.epoch)})
	rec.open = append(rec.open, id)
	return id
}

// end closes the span begin returned. Spans close in any order: a callback
// on the simulation engine may end one that outlived its caller.
func (rec *recorder) end(id int, count int64) {
	if id < 0 {
		return
	}
	rec.spans[id].End = time.Since(rec.epoch)
	rec.spans[id].Count = count
	for i := len(rec.open) - 1; i >= 0; i-- {
		if rec.open[i] == id {
			rec.open = append(rec.open[:i], rec.open[i+1:]...)
			break
		}
	}
}

// opSample is one timed operation.
type opSample struct {
	kind string
	dur  time.Duration
}

// run is the state of one workload run: the recorder, the samples, the
// deterministic numbers of the current round and the failure count.
type run struct {
	seed int64
	rec  recorder

	ops      []opSample
	failed   int
	failures []string
	work     uint64 // simulated events, evaluations or IR ops processed

	vals   map[string]float64 // virtual-clock numbers and counts of this round
	sums   map[string]uint64  // data checksums of this round
	host   map[string][]float64
	digest string             // of the first round
	first  map[string]float64 // vals of the first round
}

func newRun(seed int64) *run {
	return &run{
		seed: seed, rec: recorder{epoch: time.Now(), round: -1},
		vals: map[string]float64{}, sums: map[string]uint64{}, host: map[string][]float64{},
	}
}

// op times one operation, counts it as attempted and, if f reports an
// error, as failed.
func (r *run) op(kind string, f func() error) {
	id := r.rec.begin("driver", "op."+kind)
	start := time.Now()
	err := f()
	r.ops = append(r.ops, opSample{kind, time.Since(start)})
	r.rec.end(id, 1)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", kind, err))
	}
}

func (r *run) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// call runs f inside a span; f returns the units it processed.
func (r *run) call(layer, name string, f func() int64) {
	id := r.rec.begin(layer, name)
	r.rec.end(id, f())
}

// set records a virtual-clock number or a count of the current round. It
// enters the digest, so it must not depend on the host clock.
func (r *run) set(name string, v float64) { r.vals[name] = v }

// add accumulates into a number of the current round.
func (r *run) add(name string, v float64) { r.vals[name] += v }

// sum records a data checksum of the current round.
func (r *run) sum(name string, v uint64) { r.sums[name] = v }

// sample records a host-clock number that is not a span duration.
func (r *run) sample(name string, v float64) { r.host[name] = append(r.host[name], v) }

// val reads a number of the first round.
func (r *run) val(name string) float64 { return r.first[name] }

func (r *run) beginRound(n int, traced bool) int {
	r.vals, r.sums = map[string]float64{}, map[string]uint64{}
	r.rec.on, r.rec.round = traced, n
	return r.rec.begin("driver", "round")
}

// endRound closes the round and checks that its virtual-clock numbers,
// counts and checksums are those of the first round.
func (r *run) endRound(id int) {
	r.rec.end(id, 1)
	r.rec.on = false
	d := digestOf(r.vals, r.sums)
	if r.digest == "" {
		r.digest, r.first = d, r.vals
	} else if d != r.digest {
		r.fail(fmt.Errorf("round %d: digest %s differs from the first round's %s", r.rec.round, d, r.digest))
	}
}

// digestOf hashes every deterministic number of a round, bit for bit.
func digestOf(vals map[string]float64, sums map[string]uint64) string {
	lines := make([]string, 0, len(vals)+len(sums))
	for k, v := range vals {
		lines = append(lines, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
	for k, v := range sums {
		lines = append(lines, k+"=#"+strconv.FormatUint(v, 16))
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:8])
}

// spanMS is the median duration, in milliseconds, of the spans with the
// given name recorded during rounds.
func (r *run) spanMS(name string) float64 {
	var ds []float64
	for _, s := range r.rec.spans {
		if s.Name == name && s.Round >= 0 {
			ds = append(ds, ms(s.dur()))
		}
	}
	return median(ds)
}

// spanTotals sums the duration and the count of the spans recorded during
// rounds whose name starts with prefix.
func (r *run) spanTotals(prefix string) (total time.Duration, count int64) {
	for _, s := range r.rec.spans {
		if strings.HasPrefix(s.Name, prefix) && s.Round >= 0 {
			total += s.dur()
			count += s.Count
		}
	}
	return total, count
}

// setupMS is the median duration of a span recorded during set-up.
func (r *run) setupMS(name string) float64 {
	var ds []float64
	for _, s := range r.rec.spans {
		if s.Name == name && s.Round < 0 {
			ds = append(ds, ms(s.dur()))
		}
	}
	return median(ds)
}

// tracedRounds is the number of rounds that recorded spans.
func (r *run) tracedRounds() int {
	n := 0
	for _, s := range r.rec.spans {
		if s.Name == "round" {
			n++
		}
	}
	return n
}

// result is what one run of one workload reports.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Rounds   int                `json:"rounds"`
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Failures []string           `json:"failures,omitempty"`
	Digest   string             `json:"digest"`
	Samples  int                `json:"headline_samples"`
	Tail     string             `json:"tail_percentile,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Values   map[string]float64 `json:"values"`

	spans []span
}

// usage is a reading of the process's cumulative heap costs.
type usage struct {
	alloc  uint64
	allocs uint64
	pause  time.Duration
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		alloc:  m.TotalAlloc,
		allocs: m.Mallocs,
		pause:  time.Duration(m.PauseTotalNs),
	}
}

// execute runs one workload: set-up (several times), one warm-up op, then
// whole rounds until the time box is spent. A traced run alternates
// untraced and traced rounds, so the tracing overhead is the difference
// between the two within one process.
//
// Every round runs the same ops, so the host-clock metrics are taken from
// the median round: a burst of interference that slows a minority of the
// rounds does not move them.
func execute(def workloadDef, d dims, seed int64, box time.Duration, traced bool) (*result, error) {
	// Each workload starts from a collected heap, whatever ran before it in
	// this process.
	debug.FreeOSMemory()
	r := newRun(seed)
	var w workload
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetupReps || (len(setups) < maxSetupReps && spent < cheapSetup) {
		w = def.make(d)
		r.rec.on = traced
		start := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
		r.rec.on = false
		runtime.GC()
	}
	if err := w.warmup(r); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", def.name, err)
	}
	r.ops, r.work, r.host = nil, 0, map[string][]float64{}
	runtime.GC()

	before := readUsage()
	start := time.Now()
	rounds := 0
	var wallMS, cpuMS [2][]float64 // per round: untraced, traced
	for {
		tr := traced && rounds%2 == 1
		t0, c0 := time.Now(), cpuTime()
		id := r.beginRound(rounds, tr)
		w.round(r)
		r.endRound(id)
		i := 0
		if tr {
			i = 1
		}
		wallMS[i] = append(wallMS[i], ms(time.Since(t0)))
		cpuMS[i] = append(cpuMS[i], ms(cpuTime()-c0))
		rounds++
		if time.Since(start) >= box && (!traced || rounds%2 == 0) {
			break
		}
	}
	after := readUsage()

	res := &result{
		Workload: def.name, Seed: seed, Traced: traced, Rounds: rounds,
		Ops: len(r.ops), Failed: r.failed, Failures: r.failures, Digest: r.digest,
		Metrics: map[string]float64{}, Values: r.first, spans: r.rec.spans,
	}
	var headline []float64
	for _, o := range r.ops {
		if o.kind == def.headline {
			headline = append(headline, ms(o.dur))
		}
	}
	res.Samples = len(headline)
	ops := float64(len(r.ops))
	perRound := ops / float64(rounds)
	if !traced {
		round := median(wallMS[0]) / 1e3 // seconds
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["ops_per_s"] = perRound / round
		res.Metrics["op_ms_p50"] = median(headline)
		res.Metrics["cpu_ms_per_op"] = median(cpuMS[0]) / perRound
		res.Metrics["alloc_mb_per_op"] = float64(after.alloc-before.alloc) / ops / (1 << 20)
		res.Metrics["events_per_s"] = float64(r.work) / float64(rounds) / round
		res.Metrics["virtual_ops_per_s"] = ratio(1e3, r.val(virtualMS))
		return res, nil
	}
	w.layers(r, res.Metrics)
	res.Metrics[virtualMS] = r.val(virtualMS)
	p, label := tailPercentile(len(headline))
	res.Tail = label
	res.Metrics["driver.op_ms_p90"] = percentile(headline, p)
	res.Metrics["driver.allocs_per_op"] = float64(after.allocs-before.allocs) / ops
	res.Metrics["driver.gc_pause_ms"] = ms(after.pause - before.pause)
	res.Metrics["driver.trace_overhead_pct"] = 100 * (median(wallMS[1]) - median(wallMS[0])) / median(wallMS[0])
	return res, nil
}

// tailPercentile picks the tail to report for n samples: p90 from 100
// samples on, otherwise the highest percentile with ten samples beyond it,
// and the median when even that does not exist.
func tailPercentile(n int) (float64, string) {
	switch {
	case n >= 100:
		return 0.90, "p90"
	case n >= 20:
		p := 1 - 10/float64(n)
		return p, fmt.Sprintf("p%.0f", 100*p)
	default:
		return 0.5, "p50"
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile interpolates linearly between the two nearest ranks; it is 0
// for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, and 0 where b is 0, never NaN: a failed op may leave a
// denominator unset.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
