// Command bench is the repository's benchmark: five workloads over the whole
// stack, end-to-end metrics on the host clock with tracing off, and a
// per-layer budget from spans recorded here, around each call into a layer's
// public function. README.md explains the workloads, the metrics and how to
// read the output; BENCHMARK.json at the root of the repository is the
// contract it is run under.
//
//	go run . -seed 1                      every workload, untraced then traced
//	go run . -workload scale_sweep -trace 1
//	go run . -repeat 10                   spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// stamp says where and from what a set of results came.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// commit is set by run.sh (-ldflags -X main.commit=...) from `git rev-parse
// HEAD`; a plain `go build` inside a git checkout stamps vcs.revision
// instead, and `go run` neither.
var commit string

func newStamp(seed int64, seconds int) stamp {
	commit := commit
	if info, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return stamp{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, seed, seconds}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string // "0", "1", or the file a traced run writes its spans to
	jsonOut  string
	repeat   int
	dims     dims
}

func (o options) traced() bool { return o.trace != "0" }
func (o options) traceFile() string {
	if o.trace == "0" || o.trace == "1" {
		return ""
	}
	return o.trace
}

func main() { os.Exit(parseAndRun()) }

func parseAndRun() int {
	o := options{dims: fullDims}
	var cpuProfile, memProfile string
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all five, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "derives every environment, data, chaos, cloud-trace, order, patch and mutant seed")
	flag.IntVar(&o.seconds, "seconds", 15, "how long one run measures; whole rounds, so a run ends after the round in progress")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; a path: the same, and the spans as Chrome-trace JSON")
	flag.StringVar(&o.jsonOut, "json", "", "also write every result to this file")
	flag.IntVar(&o.repeat, "repeat", 0, "run the suite this many times on the one seed and print the run-to-run spread of every end-to-end metric")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the whole command")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile at exit")
	flag.Parse()

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		defer f.Close()
	}
	code := command(o, os.Stdout)
	pprof.StopCPUProfile()
	if memProfile != "" {
		if err := writeFile(memProfile, func(w io.Writer) error { return pprof.WriteHeapProfile(w) }); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 2
		}
	}
	return code
}

// command runs what the options ask for and returns the exit code: 0 only
// if every operation of every run passed its checks.
func command(o options, out io.Writer) int {
	defs := workloads
	if o.workload != "" {
		def, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	st := newStamp(o.seed, o.seconds)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n",
		st.NProc, st.GOMAXPROCS, st.Go, st.Commit, st.Seed, st.Seconds)

	if o.repeat > 0 {
		return repeat(o, defs, out)
	}
	box := time.Duration(o.seconds) * time.Second
	var results []*result
	for _, def := range defs {
		// One workload on its own runs as the contract asks: traced or not.
		// The whole suite runs each workload untraced, then traced for a
		// quarter as long.
		modes := []bool{o.traced()}
		if o.workload == "" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			b := box
			if traced && o.workload == "" {
				b /= 4
			}
			res, err := execute(def, o.dims, o.seed, b, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			report(out, res)
			results = append(results, res)
		}
	}
	code := exitCode(results)
	if o.jsonOut != "" {
		err := writeFile(o.jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(struct {
				Stamp   stamp     `json:"stamp"`
				Results []*result `json:"results"`
			}{st, results})
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 2
		}
	}
	if path := o.traceFile(); path != "" {
		if err := writeFile(path, func(w io.Writer) error { return writeChromeTrace(w, results) }); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 2
		}
	}
	if o.workload != "" {
		fmt.Fprintln(out, contractLine(results[len(results)-1]))
	}
	return code
}

func exitCode(results []*result) int {
	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// report prints one run: every metric the workload has as `workload metric
// value unit` (the rows of a layer it bypasses are left out, never printed as
// zero), the counts, the digest and, for a traced run, the budget table.
func report(out io.Writer, r *result) {
	for _, m := range metricsOf(r.Traced) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(out, "%s %s %v %s\n", r.Workload, m.Name, v, m.Unit)
		}
	}
	fmt.Fprintf(out, "%s ops %d failed %d rounds %d headline_samples %d\n", r.Workload, r.Ops, r.Failed, r.Rounds, r.Samples)
	if r.Traced {
		fmt.Fprintf(out, "%s driver.op_ms_p90 is the headline op's %s\n", r.Workload, r.Tail)
	}
	fmt.Fprintf(out, "%s digest %s\n", r.Workload, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "%s FAILED %s\n", r.Workload, f)
	}
	if r.Traced {
		printBudget(out, r.Workload, budget(r.spans))
	}
}

// contractLine is the one JSON object a single-workload run ends with. The
// contract wants every metric of the list in it, so the rows report leaves
// out are 0 here.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range metricsOf(r.Traced) {
		metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Ops, r.Failed, metrics})
	if err != nil {
		// Only a NaN or an infinity can do this; ratio() keeps them out.
		panic(err)
	}
	return string(line)
}

// writeFile creates path, lets write fill it and reports the first error,
// Close's included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budgetRow is one layer's line of the budget table.
type budgetRow struct {
	layer string
	self  time.Duration // its spans minus what their child spans cover
	share float64       // of the traced rounds
	calls int
	count int64 // what the layer processed, in its own unit
}

// budget folds the spans of the traced rounds into self time per layer.
func budget(spans []span) []budgetRow {
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	rows := map[string]*budgetRow{}
	var rounds time.Duration
	for i, s := range spans {
		if s.Round < 0 {
			continue
		}
		if s.Name == "round" {
			rounds += s.dur()
		}
		row := rows[s.Layer]
		if row == nil {
			row = &budgetRow{layer: s.Layer}
			rows[s.Layer] = row
		}
		row.self += s.dur() - children[i]
		row.calls++
		if s.Layer != "driver" {
			row.count += s.Count
		}
	}
	out := make([]budgetRow, 0, len(rows))
	for _, row := range rows {
		row.share = ratio(float64(row.self), float64(rounds))
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printBudget(out io.Writer, workload string, rows []budgetRow) {
	fmt.Fprintf(out, "%s budget: %-12s %12s %7s %8s %12s\n", workload, "layer", "self_ms", "share", "calls", "processed")
	for _, row := range rows {
		fmt.Fprintf(out, "%s budget: %-12s %12.3f %6.1f%% %8d %12d\n", workload, row.layer, ms(row.self), 100*row.share, row.calls, row.count)
	}
}

// writeChromeTrace writes every recorded span as a complete event, one
// thread per workload, loadable in chrome://tracing and Perfetto.
func writeChromeTrace(w io.Writer, results []*result) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []event{}
	for tid, r := range results {
		for i, s := range r.spans {
			events = append(events, event{
				Name: s.Name, Cat: s.Layer, Ph: "X", PID: 1, TID: tid + 1,
				TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Args: map[string]any{"workload": r.Workload, "id": i, "parent": s.Parent, "round": s.Round, "count": s.Count},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
