# Tier-1 verification for builders and CI. `make verify` is the gate every
# change must pass: vet, build, the full test suite, the turboca
# concurrency tests under the race detector (the parallel NBO engine's
# determinism contract is only meaningful if it is also data-race free),
# the control-plane chaos suite under the race detector, the coverage
# floor on the packet-path packages, and a short fuzz smoke over the
# checked-in corpora.

GO ?= go

# Packages whose statement coverage must stay at or above COVER_FLOOR:
# the TCP packet path, where a silent regression corrupts traffic rather
# than failing a build, plus the shared telemetry store and the fleet
# control plane, whose determinism contracts live in their tests.
COVER_PKGS  = ./internal/fastack ./internal/tcpstack ./internal/packet ./internal/littletable ./internal/fleetd ./internal/oracle
COVER_FLOOR = 75
# The FastACK agent carries the safety guard and invariant checker; its
# guard/chaos/fuzz test battery holds it to a stricter floor.
COVER_FLOOR_FASTACK = 93
# The optimality oracle is the ground truth the planner is measured
# against; an untested branch there silently weakens every gap number.
COVER_FLOOR_ORACLE = 85

# Seconds of random exploration per fuzz target in the smoke pass. The
# checked-in seed corpora always run in full via `make test`; this adds a
# brief live search so verify catches shallow regressions in new code.
FUZZTIME = 5s

.PHONY: verify vet build test race chaos chaos-kill storm cover fuzz bench bench-json bench-check gap perfbench

verify: vet build test race chaos chaos-kill storm cover fuzz bench-json bench-check
	-$(MAKE) gap

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/turboca/...

# Fault-injected control plane: chaos campus runs, retry/reconcile
# contracts, and the faults package's determinism properties, all under
# the race detector (poll delivery, retries, and planning interleave).
# Plus the data-path chaos acceptance suite: seeded DataChaos campaigns
# over the FastACK testbed (guard lifecycle, invariants, drain-to-zero,
# goodput floors) and the fastack guard/fuzz-regression tests. -short
# keeps the campaign to a dozen seeds under -race; `go test
# ./internal/testbed` runs all 100.
chaos:
	$(GO) test -race -run 'TestChaos|TestPollInterval' ./internal/backend/...
	$(GO) test -race ./internal/faults/...
	$(GO) test -race -short -run 'TestChaos|TestDataChaos|TestRoaming|TestUplink|TestBidirectional' ./internal/testbed/...
	$(GO) test -race -run 'TestGuard|TestSweep|TestRST|TestExportImport|TestInvariant|TestClientAckHeal|TestSpurious|FuzzAgentDatagram' ./internal/fastack/...

# Crash-safety campaign for the fleet control plane: seeded SIGKILLs at
# durable-write instants over a 600-network fleet (half tearing the
# journal's final record), restart-replay equivalence at every write
# boundary, degraded-mode determinism under checkpoint failures, pass
# supervision (panic quarantine, stuck-pass watchdog, lag demotion), and
# a real SIGKILL re-exec of the test binary over the on-disk store — all
# under the race detector. -short keeps the campaign to 8 seeds under
# -race; plain `go test ./internal/fleetd` runs all 50.
chaos-kill:
	$(GO) test -race -short -run 'TestChaosKillCampaign|TestRestartEquivalence|TestCleanRestart|TestDegraded|TestOpenTruncates|TestOpenRejects|TestPanicQuarantine|TestWatchdog|TestLagDegradation|TestRealSIGKILL' ./internal/fleetd

# Hostile-RF survival campaign under the race detector: the campus storm
# acceptance run (correlated DFS sweeps + spectrum-trace interference,
# zero NOP-invariant trips, 10% recovery bound, byte-identical replay),
# the per-strike NOP semantics tests, the 100-seed no-transmit property,
# and the fleet-correlated StormRF determinism tests.
storm:
	$(GO) test -race -run 'TestStorm|TestInstallChannelRefusesNOP|TestPlannerInputCarriesRF' ./internal/backend
	$(GO) test -race -run 'TestStormRF|TestStormRadar' ./internal/fleetd
	$(GO) test -race ./internal/rfenv

# Coverage floor: fails if any of COVER_PKGS drops below COVER_FLOOR%
# (the fastack package is held to COVER_FLOOR_FASTACK instead).
cover:
	@for pkg in $(COVER_PKGS); do \
		floor=$(COVER_FLOOR); \
		case $$pkg in \
			*/fastack) floor=$(COVER_FLOOR_FASTACK);; \
			*/oracle) floor=$(COVER_FLOOR_ORACLE);; \
		esac; \
		out=$$($(GO) test -cover -count=1 $$pkg | tail -1) || exit 1; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(echo "$$pct $$floor" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "coverage floor: $$pkg at $$pct% < $$floor%"; exit 1; \
		fi; \
		echo "cover $$pkg $$pct% (floor $$floor%)"; \
	done

# Fuzz smoke: each target explores for FUZZTIME beyond its seed corpus.
# Go allows one -fuzz target per invocation, hence one line per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSanitize$$' -fuzztime $(FUZZTIME) ./internal/turboca
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEthernet$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzAgentDatagram$$' -fuzztime $(FUZZTIME) ./internal/fastack

# Planner scaling numbers (BenchmarkRunNBO sweeps Workers on ~600 APs).
bench:
	$(GO) test -run=NONE -bench=RunNBO -benchmem ./internal/turboca/...

# Machine-readable benchmark artifacts: BENCH_planner.json (one i=0 pass
# over the ~600-AP chain), BENCH_fleetd.json (bytes/network and passes/sec
# at 10k networks, plus the adaptive-cadence twin's passes-saved numbers),
# BENCH_oracle.json (exact-solver latency and node counts at 6/9/12 APs),
# and BENCH_fastack.json (hot-path segments/sec and allocs/op at 1k and
# 10k concurrent flows), and BENCH_rfenv.json (spectrum-trace sampling
# throughput and storm-recovery planner passes).
# Non-failing by design — the artifacts are a by-product of verify, not a
# gate on absolute speed; regressions are judged by a human diffing the
# JSON, so a slow machine cannot fail the build. bench-check (below)
# still fails verify when an artifact is missing or malformed.
bench-json:
	-BENCH_JSON_DIR=$(CURDIR) $(GO) test -run=NONE -bench='^BenchmarkPlannerPass$$' -benchtime=1x ./internal/turboca
	-BENCH_JSON_DIR=$(CURDIR) $(GO) test -run=NONE -bench='^(BenchmarkFleetd10kNetworks|BenchmarkFleetdAdaptiveCadence)$$' -benchtime=1x -timeout 30m ./internal/fleetd
	-BENCH_JSON_DIR=$(CURDIR) $(GO) test -run=NONE -bench='^BenchmarkOracleSolve$$' ./internal/oracle
	-BENCH_JSON_DIR=$(CURDIR) $(GO) test -run=NONE -bench='^BenchmarkAgentHotPath' -benchtime=50000x ./internal/fastack
	-BENCH_JSON_DIR=$(CURDIR) $(GO) test -run=NONE -bench='^BenchmarkRFEnv$$' -benchtime=1x ./internal/rfenv

# Sanity-check the bench-json artifacts: every required key present and a
# finite non-negative number. Catches a silently broken emitter without
# gating on machine speed.
bench-check:
	$(GO) run ./cmd/benchcheck \
		BENCH_planner.json:ns_per_pass,passes_per_sec,aps \
		BENCH_fleetd.json:ns_per_pass,passes_per_sec,bytes_per_network,networks,adaptive_passes_saved_pct,adaptive_netp_delta_pct \
		BENCH_oracle.json:aps_6_ns_per_solve,aps_6_nodes,aps_9_ns_per_solve,aps_9_nodes,aps_12_ns_per_solve,aps_12_nodes \
		BENCH_fastack.json:flows_1000_segments_per_sec,flows_1000_allocs_per_op,flows_10000_segments_per_sec,flows_10000_allocs_per_op,flows_1000_batched_segments_per_sec \
		BENCH_rfenv.json:trace_samples_per_sec,storm_recovery_passes

# Optimality-gap campaign (advisory, non-failing in verify): the exact
# branch-and-bound oracle certifies NBO's NetP on every <=12-AP scenario
# family under the race detector. See internal/experiments/gap.go and
# `turboca -oracle` for the interactive version.
gap:
	$(GO) test -race -count=1 -run '^TestGapCampaign$$' ./internal/experiments

# The end-to-end benchmark (BENCHMARK.json, perfbench/README.md): each
# workload for SECONDS at seed SEED, one result line per workload. Not part
# of verify: its numbers are host wall-clock times.
SEED ?= 1
SECONDS ?= 40
perfbench:
	for w in fleet-steady fleet-day fastack-testbed; do \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0 || exit 1; \
	done
