package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/fleetd"
	"repro/internal/obs"
	"repro/internal/sim"
)

const window = 15 * sim.Minute

// referenceFleet seeds the fixed fleet population every fleet round plans,
// so every workload seed plans the same networks and the host numbers move
// with the code, not with the fleet drawn. fleet.Generate draws networks in
// turn from one stream, so a fleet of n networks is the first n of any
// larger one. The workload seed
// is the controller seed: it derives each network's demands, clients,
// interferers, engine and planner streams.
const referenceFleet = 20170811

// runFleet is one fleet round: generate, register and run the cold window
// (set-up), then run the timed 15-minute windows closed loop. With a store
// it then forces a checkpoint and times a restart through fleetd.Open,
// whose snapshot must equal the live one.
func runFleet(env *roundEnv) *round {
	sz, rec := env.size, env.rec
	r := &round{layer: map[string]float64{}}
	reg := obs.Default()
	cfg := fleetd.Config{Seed: env.seed, PassDeadline: time.Minute}
	if !sz.FullCadence {
		cfg.Mid, cfg.Deep = -1, -1
	}
	fail := func(format string, a ...any) {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}

	rec.start("round")
	defer rec.finish(r)
	s0 := reg.Snapshot()
	var m0, m1, m2, m3 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Set-up: generate + register + the cold window.
	t := time.Now()
	rec.begin("fleet.Generate", "")
	f := fleet.Generate(fleet.Options{Seed: referenceFleet, Networks: sz.Networks})
	rec.end()
	generateS := time.Since(t).Seconds()

	runtime.GC()
	runtime.ReadMemStats(&m1)
	t = time.Now()
	var c *fleetd.Controller
	var store *fleetd.MemStore
	if sz.Store {
		store = fleetd.NewMemStore(nil)
		rec.begin("fleetd.Open", "empty store")
		var err error
		if c, err = fleetd.Open(cfg, store); err != nil {
			fail("fleetd.Open on an empty store: %v", err)
			rec.end()
			return r
		}
		rec.end()
	} else {
		c = fleetd.New(cfg)
	}
	rec.begin("fleetd.AddFleet", "")
	if err := c.AddFleet(f); err != nil {
		fail("AddFleet: %v", err)
	}
	rec.end()
	registerS := time.Since(t).Seconds()

	t = time.Now()
	rec.begin("fleetd.RunTo", "cold level="+deepestDue(sz.FullCadence, 0, window))
	if err := c.RunTo(window); err != nil {
		fail("cold window: %v", err)
	}
	rec.end()
	coldS := time.Since(t).Seconds()
	r.setupS = generateS + registerS + coldS

	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.bytesPerNet = float64(int64(m2.HeapAlloc)-int64(m1.HeapAlloc)) / float64(sz.Networks)

	// Timed windows, closed loop: the next window is asked for only after
	// RunTo returns.
	s1 := reg.Snapshot()
	skipped, passesI0 := reg.Counter("fleetd.skipped_i0"), reg.Counter("fleetd.passes_i0")
	var quiet []float64
	for w := 2; w <= 1+sz.Windows; w++ {
		from, to := sim.Time(w-1)*window, sim.Time(w)*window
		sk, p0 := skipped.Value(), passesI0.Value()
		t = time.Now()
		rec.window("fleetd.RunTo", "level="+deepestDue(sz.FullCadence, from, to))
		if err := c.RunTo(to); err != nil {
			fail("window to %v: %v", to, err)
		}
		rec.end()
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		r.windowsMS = append(r.windowsMS, ms)
		r.liveS += ms / 1e3
		if inv := 2 * (passesI0.Value() - p0); inv > 0 && float64(skipped.Value()-sk) >= 0.95*float64(inv) {
			quiet = append(quiet, ms)
		}
	}
	r.simS = float64(sz.Windows) * window.Seconds()
	r.roundS = r.liveS
	runtime.ReadMemStats(&m3)

	rec.begin("fleetd.Snapshot", "live")
	snap := c.Snapshot()
	live := snap.String()
	rec.end()
	s2 := reg.Snapshot()
	r.quality = math.Exp(snap.LogNetP5.P50)
	h := fnv.New64a()
	h.Write([]byte(live))
	r.fingerprint = fmt.Sprintf("snapshot=%x netp=%x", h.Sum64(), math.Float64bits(r.quality))

	// Failure accounting over the live run: a pass fails when it panics,
	// blows its watchdog or leaves its network quarantined.
	dl := s2.Delta(s0)
	faulted := int(dl.Counters["fleetd.pass_panics"] + dl.Counters["fleetd.watchdog_cancels"])
	if snap.QuarantinedNets > faulted {
		faulted = snap.QuarantinedNets
	}
	r.attempted += int(passes(dl)) + faulted
	r.failed += faulted
	if faulted > 0 {
		fail("%d planning passes faulted (%d networks quarantined)", faulted, snap.QuarantinedNets)
	}

	timedPasses := float64(passes(s2.Delta(s1)))
	fleetLayers(r.layer, dl)
	r.layer["fleet.generate_s"] = generateS
	r.layer["fleetd.register_s"] = registerS
	r.layer["fleetd.cold_window_s"] = coldS
	r.layer["fleetd.passes_per_s"] = timedPasses / r.liveS
	r.layer["fleetd.quiet_window_ms_p50"] = quantile(quiet, 0.5)
	r.layer["fleetd.netp_p50"] = r.quality
	r.layer["runtime.allocs_per_pass"] = float64(m3.Mallocs-m2.Mallocs) / timedPasses
	r.layer["runtime.gc_cycles"] = float64((m3.NumGC - m3.NumForcedGC) - (m0.NumGC - m0.NumForcedGC))

	if store != nil {
		restart(r, rec, cfg, c, store, live)
	}
	return r
}

// restart forces a checkpoint, then times fleetd.Open replaying the same
// store back to the live clock and checks its snapshot against live.
func restart(r *round, rec *roundRec, cfg fleetd.Config, c *fleetd.Controller, store *fleetd.MemStore, live string) {
	reg := obs.Default()
	r.attempted++
	t := time.Now()
	rec.begin("fleetd.Checkpoint", "")
	err := c.Checkpoint()
	rec.end()
	ckpt := time.Since(t)
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("Checkpoint: %v", err))
		return
	}
	// MemStore reads cannot fail.
	journal, _ := store.JournalBytes()
	blob, _, _ := store.Checkpoint()

	before := reg.Snapshot()
	t = time.Now()
	rec.begin("fleetd.Open", "restart")
	c2, err := fleetd.Open(cfg, store)
	rec.end()
	open := time.Since(t)
	replay := reg.Snapshot().Delta(before)
	r.roundS += (ckpt + open).Seconds()

	r.layer["fleetd.journal_records"] = float64(bytes.Count(journal, []byte("\n")))
	r.layer["fleetd.journal_bytes"] = float64(len(journal))
	r.layer["fleetd.checkpoint_bytes"] = float64(len(blob))
	r.layer["fleetd.checkpoint_ms"] = float64(ckpt.Nanoseconds()) / 1e6
	r.layer["fleetd.replay_passes"] = float64(passes(replay))
	r.layer["fleetd.restart_s"] = open.Seconds()

	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("restart: fleetd.Open: %v", err))
		return
	}
	rec.begin("fleetd.Snapshot", "restarted")
	got := c2.Snapshot().String()
	rec.end()
	if got != live || c2.Now() != c.Now() {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(
			"restarted snapshot at %v differs from live at %v:\n--- live\n%s--- restarted\n%s", c2.Now(), c.Now(), live, got))
	}
}

// passes counts the planning passes executed at every cadence level.
func passes(d obs.Snapshot) int64 {
	return d.Counters["fleetd.passes_i0"] + d.Counters["fleetd.passes_i1"] + d.Counters["fleetd.passes_i2"]
}

// fleetLayers fills the fleetd, turboca, backend and littletable metrics
// from the obs delta of the live run.
func fleetLayers(out map[string]float64, d obs.Snapshot) {
	// milli scales a µs (or ns) histogram quantile to ms (or µs).
	milli := func(name string, q func(obs.HistSnapshot) int64) float64 {
		return float64(q(d.Histograms[name])) / 1e3
	}
	p50 := func(h obs.HistSnapshot) int64 { return h.P50 }
	p99 := func(h obs.HistSnapshot) int64 { return h.P99 }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	cnt := d.Counters

	out["fleetd.pass_ms_p50"] = milli("fleetd.pass_us", p50)
	out["fleetd.pass_ms_p99"] = milli("fleetd.pass_us", p99)
	out["fleetd.sched_lag_ms_p99"] = milli("fleetd.sched_lag_us", p99)
	ingest := d.Histograms["fleetd.ingest_us"]
	out["fleetd.ingest_ms_sum"] = ingest.Mean * float64(ingest.Count) / 1e3
	out["fleetd.passes_i0"] = float64(cnt["fleetd.passes_i0"])
	out["fleetd.passes_i1"] = float64(cnt["fleetd.passes_i1"])
	out["fleetd.passes_i2"] = float64(cnt["fleetd.passes_i2"])
	out["fleetd.coalesced"] = float64(cnt["fleetd.coalesced"])
	out["fleetd.skip_ratio"] = ratio(cnt["fleetd.skipped_i0"], 2*cnt["fleetd.passes_i0"])

	out["turboca.pass_ms_p50"] = milli("turboca.pass_us", p50)
	out["turboca.pass_ms_p99"] = milli("turboca.pass_us", p99)
	out["turboca.hop_level_ms_p50"] = milli("turboca.hop_level_us", p50)
	out["turboca.invocations"] = float64(cnt["turboca.passes"])
	out["turboca.accept_ratio"] = ratio(cnt["turboca.rounds_accepted"], cnt["turboca.nbo_rounds"])
	out["turboca.rescore_reuse_ratio"] = ratio(cnt["turboca.rescore_reused"], cnt["turboca.rescore_fresh"]+cnt["turboca.rescore_reused"])
	out["turboca.switches_planned"] = float64(cnt["turboca.switches_planned"])

	out["backend.poll_ms_p50"] = milli("backend.poll_pass_us", p50)
	out["backend.reconcile_ms_p50"] = milli("backend.reconcile_pass_us", p50)
	out["backend.polls"] = float64(cnt["backend.polls_attempted"])
	out["backend.push_fail_ratio"] = ratio(cnt["backend.pushes_failed"], cnt["backend.pushes_attempted"])

	out["littletable.insert_us_p50"] = milli("littletable.insert_ns", p50)
	out["littletable.query_us_p50"] = milli("littletable.query_ns", p50)
	out["littletable.rows_inserted"] = float64(cnt["littletable.rows_inserted"])
	out["littletable.rows_pruned"] = float64(cnt["littletable.rows_pruned"])
}

// deepestDue names the deepest cadence level with a deadline in (from, to]:
// every network registers at t=0, so level deadlines fall on multiples of
// the level's period.
func deepestDue(full bool, from, to sim.Time) string {
	switch {
	case full && to/(24*sim.Hour) > from/(24*sim.Hour):
		return "2"
	case full && to/(3*sim.Hour) > from/(3*sim.Hour):
		return "1"
	}
	return "0"
}
