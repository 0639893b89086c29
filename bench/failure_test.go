package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"testing"

	"adapcc/internal/ir"
)

// TestAcceptedMutantFailsTheRun makes a check fail: with the mutation
// replaced by the identity the verifier accepts the "mutant", the op counts
// as failed, the result line says so and the command's exit code is not 0.
func TestAcceptedMutantFailsTheRun(t *testing.T) {
	def, _ := findWorkload("ir_verify")
	def.make = func(d dims) workload {
		return &irVerify{d: d, mutate: func(p *ir.Program, _ *rand.Rand) *ir.Program { return p }}
	}
	res, err := execute(def, tinyDims, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Rounds {
		t.Errorf("%d ops failed in %d rounds, want one per round: %v", res.Failed, res.Rounds, res.Failures)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "was accepted") {
		t.Errorf("failures %v do not name the accepted mutant", res.Failures)
	}
	if code := exitCode([]*result{res}); code == 0 {
		t.Error("exit code 0 with a failed op")
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != res.Failed || line.Attempted != res.Ops {
		t.Errorf("result line %+v does not report the failure", line)
	}
}

// TestUnknownWorkloadExitsNonZero covers the other way to a non-zero exit.
func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	if code := command(options{workload: "nope", seconds: 1, trace: "0", dims: tinyDims}, io.Discard); code == 0 {
		t.Error("exit code 0 for an unknown workload")
	}
}
