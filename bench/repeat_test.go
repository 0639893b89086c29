package main

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins spreadOf to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{9, 1, 4, 7, 2, 10, 3, 8, 6, 5}
	s := spreadOf(v)
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.q1, s.median, s.q3)
	}
	if got := s.status(0.5); got != "unresolved" {
		t.Errorf("spread %v against bound 0.5 is %s, want unresolved", s.spread, got)
	}
	if got := s.status(1); got != "resolved" {
		t.Errorf("spread %v against bound 1 is %s, want resolved", s.spread, got)
	}
}

// TestRepeat runs the whole suite ADAPCC_BENCH_REPEAT times at the measured
// sizes and logs the spread table; it fails if an operation does. Minutes
// per repetition, so it is off unless asked for.
func TestRepeat(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv("ADAPCC_BENCH_REPEAT"))
	if err != nil || n < 1 {
		t.Skip("set ADAPCC_BENCH_REPEAT=N to run the suite N times")
	}
	var out strings.Builder
	code := command(options{seed: 1, seconds: 15, trace: "0", repeat: n, dims: fullDims}, &out)
	t.Log("\n" + out.String())
	if code != 0 {
		t.Errorf("exit code %d", code)
	}
}
