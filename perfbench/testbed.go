package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/testbed"
)

var arms = []testbed.Mode{testbed.Baseline, testbed.FastACK}

// setupReps is how often a round builds its whole set of testbeds. One
// build of the set takes about a millisecond, too short to time once, so
// setup_s is the median over these builds; the last build is the one that
// runs.
const setupReps = 40

// runTestbed is one testbed round: for each of size.Testbeds seeds derived
// from the workload seed, build a Baseline and a FastACK testbed at that
// seed (set-up), then run every testbed for the fixed simulated time in
// one-second windows, closed loop. Several seeds per round average the
// client draws, so the round's outcome moves little from seed to seed.
func runTestbed(env *roundEnv) *round {
	sz, rec := env.size, env.rec
	r := &round{layer: map[string]float64{}}
	reg := obs.Default()
	rec.start("round")
	defer rec.finish(r)

	var opts []testbed.Options
	var modes []testbed.Mode
	for i := 0; i < 2*sz.Testbeds; i++ {
		mode := arms[i%2]
		opt := testbed.DefaultOptions()
		opt.Seed = env.seed*int64(sz.Testbeds) + int64(i/2)
		opt.APModes = []testbed.Mode{mode, mode}
		opt.ClientsPerAP = sz.ClientsPerAP
		opt.FastACK.CheckInvariants = true
		opts = append(opts, opt)
		modes = append(modes, mode)
	}
	var tbs []*testbed.Testbed
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		tbs = nil
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i, opt := range opts {
			rec.begin("testbed.New", modes[i].String())
			tbs = append(tbs, testbed.New(opt))
			rec.end()
		}
		setups = append(setups, time.Since(t).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&m1)
		r.bytesPerNet = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(len(tbs))
	}
	r.setupS = quantile(setups, 0.5)

	s0 := reg.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dur := sim.Time(sz.SimSeconds) * sim.Second
	runS := map[testbed.Mode]float64{}
	for i, tb := range tbs {
		mode := modes[i]
		for s := 1; s <= sz.SimSeconds; s++ {
			to := sim.Time(s) * sim.Second
			t := time.Now()
			if s == 1 {
				rec.window("testbed.Run", mode.String())
				tb.Run(to)
			} else {
				rec.window("sim.Engine.RunUntil", mode.String())
				tb.Engine.RunUntil(to)
			}
			rec.end()
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			r.windowsMS = append(r.windowsMS, ms)
			runS[mode] += ms / 1e3
		}
	}
	runtime.ReadMemStats(&m1)
	d := reg.Snapshot().Delta(s0)
	r.liveS = runS[testbed.Baseline] + runS[testbed.FastACK]
	r.roundS = r.liveS
	r.simS = 2 * dur.Seconds()

	// Outcomes and failure accounting: a flow fails if its AP's agent
	// tripped an invariant, it is left bypassed with undrained debt, or it
	// delivered no goodput.
	goodput := map[testbed.Mode]float64{}
	var events uint64
	var retx, timeouts int64
	var ampdu, lat []float64
	for i, tb := range tbs {
		for _, c := range tb.Clients {
			g := c.GoodputMbps(dur)
			goodput[modes[i]] += g
			r.attempted++
			if g <= 0 {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("%v seed %d client %d delivered no goodput", modes[i], tb.Opt.Seed, c.Index))
			}
		}
		if v := tb.InvariantViolations(); v > 0 {
			n := int(v)
			if n > len(tb.Clients) {
				n = len(tb.Clients)
			}
			r.failed += n
			r.problems = append(r.problems, fmt.Sprintf("%v seed %d: %d FastACK invariant violations: %v", modes[i], tb.Opt.Seed, v, tb.AgentViolations()))
		}
		if u := tb.UndrainedBypassedFlows(); u > 0 {
			r.failed += u
			r.problems = append(r.problems, fmt.Sprintf("%v seed %d: %d bypassed flows left with undrained debt", modes[i], tb.Opt.Seed, u))
		}
		events += tb.Engine.Fired()
		for _, s := range tb.Senders {
			if s.TCP != nil {
				st := s.TCP.Stats()
				retx += st.Retransmits
				timeouts += st.Timeouts
			}
		}
		for _, agg := range tb.AggAP {
			ampdu = append(ampdu, agg.Values()...)
		}
		lat = append(lat, tb.Lat80211.Values()...)
	}
	// quality is the FastACK arm's goodput per testbed as a share of the
	// PHY's top rate: it falls with the FastACK gain and with goodput lost
	// in both arms alike.
	def := testbed.DefaultOptions()
	topMbps := phy.MaxRate(def.NSS, def.Width, phy.SGI).Mbps()
	r.quality = goodput[testbed.FastACK] / float64(sz.Testbeds) / topMbps
	r.fingerprint = fmt.Sprintf("goodput=%x/%x events=%d",
		math.Float64bits(goodput[testbed.Baseline]), math.Float64bits(goodput[testbed.FastACK]), events)

	l := r.layer
	l["testbed.run_s.baseline"] = runS[testbed.Baseline]
	l["testbed.run_s.fastack"] = runS[testbed.FastACK]
	l["testbed.goodput_mbps"] = goodput[testbed.FastACK] / float64(sz.Testbeds)
	l["testbed.fastack_gain"] = goodput[testbed.FastACK] / goodput[testbed.Baseline]
	l["sim.events"] = float64(events)
	l["sim.events_per_s"] = float64(events) / r.liveS
	l["mac.ampdu_mpdus_p50"] = quantile(ampdu, 0.5)
	l["mac.lat80211_ms_p50"] = quantile(lat, 0.5)
	l["tcpstack.retransmits"] = float64(retx)
	l["tcpstack.timeouts"] = float64(timeouts)
	l["fastack.fast_acks_sent"] = float64(d.Counters["fastack.fast_acks_sent"])
	l["fastack.client_acks_dropped"] = float64(d.Counters["fastack.client_acks_dropped"])
	l["fastack.local_retransmits"] = float64(d.Counters["fastack.local_retransmits"])
	if hits, misses := d.Counters["fastack.cache_hits"], d.Counters["fastack.cache_misses"]; hits+misses > 0 {
		l["fastack.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	l["runtime.allocs_per_sim_s"] = float64(m1.Mallocs-m0.Mallocs) / r.simS
	l["runtime.gc_cycles"] = float64((m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC))
	return r
}
