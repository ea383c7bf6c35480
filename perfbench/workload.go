package main

import "sort"

// size is a workload's fixed input size. Fleet and testbed workloads use
// disjoint fields.
type size struct {
	Networks    int  `json:"networks,omitempty"`      // a prefix of the reference fleet, uncapped
	Windows     int  `json:"timed_windows,omitempty"` // 15-minute windows after the cold one
	FullCadence bool `json:"full_cadence,omitempty"`  // i=1 and i=2 passes too
	Store       bool `json:"store,omitempty"`         // MemStore, hourly checkpoints, restart

	Testbeds     int `json:"testbed_seeds,omitempty"` // Baseline+FastACK pairs per round
	ClientsPerAP int `json:"clients_per_ap,omitempty"`
	SimSeconds   int `json:"sim_seconds,omitempty"`
}

// workload is one benchmark input; BENCHMARK.json says why each exists.
// run executes one round: set-up plus the workload's fixed job, all
// derived from the seed. toy is the smoke test's size.
type workload struct {
	size, toy size
	run       func(*roundEnv) *round
}

// The fleets plan prefixes of the reference fleet (see fleet.go), uncapped.
// Network 14 (155 APs, dense) carries most of fleet-steady's planning
// time, as the few large dense networks do in the whole population.
// fleet-day stops just before it: with it, a full-cadence day plus the
// restart that replays it takes about 23 s on two cores, more than a run
// can hold next to its warm-up round.
var workloads = map[string]*workload{
	"fleet-steady": {
		size: size{Networks: 15, Windows: 100},
		toy:  size{Networks: 2, Windows: 3},
		run:  runFleet,
	},
	"fleet-day": {
		size: size{Networks: 14, Windows: 95, FullCadence: true, Store: true},
		toy:  size{Networks: 2, Windows: 12, FullCadence: true, Store: true},
		run:  runFleet,
	},
	"fastack-testbed": {
		size: size{Testbeds: 3, ClientsPerAP: 20, SimSeconds: 10},
		toy:  size{Testbeds: 1, ClientsPerAP: 2, SimSeconds: 4},
		run:  runTestbed,
	},
}

// roundEnv is what a round gets from the measurement loop.
type roundEnv struct {
	seed int64
	size size
	rec  *roundRec
}

// round is one round's raw measurements.
type round struct {
	setupS      float64   // set-up wall time
	simS, liveS float64   // simulated and wall seconds of the timed phase
	windowsMS   []float64 // wall ms of every timed window
	roundS      float64   // wall time of the work after set-up
	bytesPerNet float64   // heap growth over set-up per network
	quality     float64   // the workload's deterministic headline outcome

	attempted, failed int
	problems          []string
	// fingerprint renders every sim output of the round; it must be the
	// same for every round at one seed.
	fingerprint string
	layer       map[string]float64 // per-layer metrics
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
