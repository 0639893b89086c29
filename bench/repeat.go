package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// repeat runs the suite o.repeat times with tracing off and prints for every
// workload and end-to-end metric the median, the quartiles and the spread
// (the distance between the quartiles as a share of the median). Every
// repetition gets the same seed, so the spread is the host's noise alone. A
// metric whose spread exceeds its bound is marked unresolved: a later
// comparison of two commits cannot call it unchanged.
func repeat(o options, defs []workloadDef, out io.Writer) int {
	box := time.Duration(o.seconds) * time.Second
	values := map[string][]float64{}
	code := 0
	for i := 0; i < o.repeat; i++ {
		for _, def := range defs {
			res, err := execute(def, o.dims, o.seed, box, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if res.Failed > 0 {
				report(out, res)
				code = 1
			}
			for name, v := range res.Metrics {
				key := def.name + " " + name
				values[key] = append(values[key], v)
			}
		}
	}
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "status")
	for _, def := range defs {
		for _, m := range endToEnd {
			s := spreadOf(values[def.name+" "+m.Name])
			fmt.Fprintf(out, "%-14s %-16s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s\n",
				def.name, m.Name, s.median, s.q1, s.q3, 100*s.spread, 100*m.Bound, s.status(m.Bound))
		}
	}
	return code
}

type spread struct {
	median, q1, q3, spread float64
}

// status is "resolved" when run-to-run spread stays within the bound.
func (s spread) status(bound float64) string {
	if s.spread > bound {
		return "unresolved"
	}
	return "resolved"
}

// spreadOf takes the quartiles as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), so the numbers match the driver's.
func spreadOf(v []float64) spread {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return spread{median: median(s), q1: median(s), q3: median(s)}
	}
	quartile := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out := spread{median: quartile(2), q1: quartile(1), q3: quartile(3)}
	out.spread = ratio(out.q3-out.q1, out.median)
	return out
}
