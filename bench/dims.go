package main

import "math/rand"

// dims sizes the five workloads. The benchmark runs fullDims; the tests run
// tinyDims, the same operation lists on worlds small enough for `go test`.
// Metric names carry fullDims' sizes (synth.full1024_ms, ...).
type dims struct {
	// scale tier: generated topologies, by name.
	sweepTopo            string // scale_sweep, and adapt_storm's clean reference
	stormBig, stormSmall string // PFC storm, adaptive and frozen
	downBig, downSmall   string // single NVLink LinkDown
	stormIters           int

	// synthesis: servers of 8 GPUs each.
	synthBig, synthSmall int // full, sketch, patch
	rootsBig, rootsSmall int // synth.MultiRoot in synth_scale
	irRoots              int // multi-root assemblies ir_verify lowers

	// hand-written IR schedules, in ranks.
	ringRanks, treeRanks int

	// paper testbed.
	paperMiB   [3]int64
	rootsMiB   int64
	trainIters int
}

// fullDims is what BENCHMARK.json measures. Where it departs from ISSUE 12's
// list the README says why: each departure keeps a round short enough that
// a ten-second run holds several.
var fullDims = dims{
	sweepTopo:  "rail:groups=16,servers=8,rails=8",
	stormBig:   "fattree:pods=16,servers=8,gpus=8,spines=4",
	stormSmall: "fattree:pods=8,servers=4,gpus=8,spines=4",
	downBig:    "rail:groups=16,servers=8,rails=8",
	downSmall:  "rail:groups=8,servers=4,rails=8",
	stormIters: 8,

	synthBig: 128, synthSmall: 32,
	rootsBig: 16, rootsSmall: 8,
	irRoots: 16,

	ringRanks: 128, treeRanks: 1024,

	paperMiB:   [3]int64{1, 32, 128},
	rootsMiB:   32,
	trainIters: 200,
}

var tinyDims = dims{
	sweepTopo:  "rail:groups=2,servers=2,rails=8",
	stormBig:   "fattree:pods=4,servers=2,gpus=8,spines=4",
	stormSmall: "fattree:pods=2,servers=2,gpus=8,spines=4",
	downBig:    "rail:groups=4,servers=2,rails=8",
	downSmall:  "rail:groups=2,servers=2,rails=8",
	stormIters: 8,

	synthBig: 8, synthSmall: 4,
	rootsBig: 4, rootsSmall: 2,
	irRoots: 2,

	ringRanks: 16, treeRanks: 64,

	paperMiB:   [3]int64{1, 2, 4},
	rootsMiB:   2,
	trainIters: 10,
}

// Every seed a layer receives is derived from the run's -seed and a fixed
// purpose, so two purposes never share a random stream.
const (
	purposeEnv = iota + 1
	purposeData
	purposeChaos
	purposeCloud
	purposeOrder
	purposePatch
	purposeMutant
	purposeTrain
)

// derive is splitmix64 over (seed, purpose), kept positive.
func derive(seed int64, purpose int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(purpose)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

func rngFor(seed int64, purpose int) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, purpose)))
}
