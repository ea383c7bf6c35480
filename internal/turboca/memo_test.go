package turboca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/spectrum"
)

// refDeltaScore is the unmemoized deltaScore: i's NodeP plus every
// neighbor's NodeP, each recomputed in full for candidate c. The memoized
// scorer must reproduce it bit for bit.
func refDeltaScore(p *planner, i int, c chanIdx) float64 {
	prev := p.assign[i]
	p.assign[i] = c
	score := p.logNodeP(i, c)
	for _, j := range p.neigh[i] {
		if p.ignore[j] {
			continue
		}
		nc := p.channelOf(j)
		if nc == noChan {
			continue
		}
		score += p.logNodeP(j, nc)
	}
	p.assign[i] = prev
	return score
}

// offSuperset returns one of two 20 MHz channels of band that are not in
// the band's shared superset table but overlap channels that are, so
// interning it clones or grows the table.
func offSuperset(band spectrum.Band, k int) spectrum.Channel {
	numbers := map[spectrum.Band][2]int{
		spectrum.Band2G4: {3, 9},
		spectrum.Band5:   {38, 42},
		spectrum.Band6:   {2, 6},
	}[band]
	return spectrum.Channel{Band: band, Number: numbers[k], Width: spectrum.W20}
}

// memoInput draws an unsanitized planning problem: asymmetric edges,
// duplicate neighbor IDs and self-loops, IDs of APs that do not exist,
// pinned and clientless APs, radar quarantines, band-wide noise, any of
// the three bands, and now and then an out-of-superset current channel.
func memoInput(r *rand.Rand) Input {
	bands := []spectrum.Band{spectrum.Band2G4, spectrum.Band5, spectrum.Band6}
	in := Input{Band: bands[r.Intn(len(bands))], AllowDFS: r.Intn(2) == 0}
	widths := spectrum.Widths
	in.MaxWidth = widths[r.Intn(len(widths))]
	all := spectrum.AllChannels(in.Band, spectrum.W160, true)
	n := 2 + r.Intn(14)
	for i := 0; i < n; i++ {
		v := APView{
			ID:          i,
			MaxWidth:    widths[r.Intn(len(widths))],
			HasClients:  r.Float64() < 0.6,
			CSAFraction: r.Float64(),
			Load:        r.Float64() * 6,
			Utilization: r.Float64(),
			Pinned:      r.Float64() < 0.15,
			WidthLoad:   map[spectrum.Width]float64{},
		}
		switch x := r.Float64(); {
		case x < 0.1:
			v.Current = offSuperset(in.Band, 0)
		case x < 0.85:
			v.Current = all[r.Intn(len(all))]
		}
		for k := r.Intn(4); k > 0; k-- {
			v.WidthLoad[widths[r.Intn(len(widths))]] = r.Float64()
		}
		for k := r.Intn(4); k > 0; k-- {
			if v.ExternalUtil == nil {
				v.ExternalUtil = map[int]float64{}
			}
			v.ExternalUtil[all[r.Intn(len(all))].Sub20Numbers()[0]] = r.Float64()
		}
		// One-way edges, duplicates, self-loops and dangling IDs.
		for k := r.Intn(7); k > 0; k-- {
			v.Neighbors = append(v.Neighbors, r.Intn(n+1))
		}
		in.APs = append(in.APs, v)
	}
	if r.Intn(2) == 0 {
		in.Blocked = map[int]bool{}
		for k := 1 + r.Intn(3); k > 0; k-- {
			in.Blocked[all[r.Intn(len(all))].Sub20Numbers()[0]] = true
		}
	}
	if r.Intn(3) == 0 {
		in.ChannelNoise = map[int]float64{all[r.Intn(len(all))].Sub20Numbers()[0]: 0.5 * r.Float64()}
	}
	return in
}

// scrambleState draws a random working state: each AP assigned some
// interned channel, left on its incumbent, or marked in ψ.
func scrambleState(r *rand.Rand, p *planner) {
	for j := range p.assign {
		p.assign[j] = noChan
		if r.Intn(3) > 0 {
			p.assign[j] = chanIdx(r.Intn(len(p.tbl.chans)))
		}
		p.ignore[j] = r.Intn(4) == 0
	}
}

// TestMemoizedScoringBitwise pins the memo's exactness contract: for any
// working state, every candidate's memoized deltaScore equals the
// unmemoized reference bit for bit, and acc, narrowestFallback and
// bestNonDFSFallback pick what they pick when driven by the reference.
// Midway, a channel outside the shared table is interned, so the memo
// must resize to the grown table.
func TestMemoizedScoringBitwise(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := memoInput(r)
		p := newPlanner(DefaultConfig(), in).cloneScratch()
		ref := func(i int, c chanIdx) float64 { return refDeltaScore(p, i, c) }
		for step := 0; step < 12; step++ {
			if step == 6 {
				n := len(p.tbl.chans)
				grown := p.internChannel(offSuperset(in.Band, 1))
				p.refreshTables()
				if len(p.tbl.chans) != n+1 {
					t.Fatalf("seed %d: interning did not grow the table", seed)
				}
				p.current[r.Intn(len(p.current))] = grown
			}
			scrambleState(r, p)
			i := r.Intn(len(p.views))

			p.beginScoring()
			for _, c := range r.Perm(2 * len(p.tbl.chans)) {
				c := chanIdx(c % len(p.tbl.chans))
				got, want := p.deltaScore(i, c), refDeltaScore(p, i, c)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: deltaScore(%d, %v) = %v, reference %v",
						seed, step, i, p.tbl.chans[c], got, want)
				}
			}

			// Interleave another AP's scoring so that each entry point
			// must open its own epoch rather than inherit one.
			before := append([]chanIdx(nil), p.assign...)
			other := r.Intn(len(p.views))
			accM := p.acc(i)
			p.acc(other)
			narM := p.narrowestFallback(i)
			p.narrowestFallback(other)
			fbM := p.bestNonDFSFallback(i)
			p.scoreRef = ref
			accR, narR, fbR := p.acc(i), p.narrowestFallback(i), p.bestNonDFSFallback(i)
			p.scoreRef = nil
			if accM != accR || narM != narR || fbM != fbR {
				t.Fatalf("seed %d step %d AP %d: memo picks (%d, %d, %v), reference (%d, %d, %v)",
					seed, step, i, accM, narM, fbM, accR, narR, fbR)
			}
			for j := range before {
				if p.assign[j] != before[j] {
					t.Fatalf("seed %d step %d: scoring left AP %d's assignment changed", seed, step, j)
				}
			}
		}
	}
}

// TestMemoizedNBOMatchesReference runs whole NBO rounds — pinned APs,
// ψ groups and the stay-put and narrowest fallbacks included — with the
// memo and with the reference scorer from the same RNG stream, and
// requires identical assignments and bitwise-equal NetP.
func TestMemoizedNBOMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		in := memoInput(rand.New(rand.NewSource(seed)))
		base := newPlanner(DefaultConfig(), in)
		memo, ref := base.cloneScratch(), base.cloneScratch()
		ref.scoreRef = func(i int, c chanIdx) float64 { return refDeltaScore(ref, i, c) }
		for hops := 0; hops <= 2; hops++ {
			memo.nbo(rand.New(rand.NewSource(seed)), hops)
			ref.nbo(rand.New(rand.NewSource(seed)), hops)
			for i := range memo.assign {
				if memo.assign[i] != ref.assign[i] {
					t.Fatalf("seed %d hops %d: AP %d planned %d with memo, %d with reference",
						seed, hops, i, memo.assign[i], ref.assign[i])
				}
			}
			if a, b := memo.logNetP(), ref.logNetP(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d hops %d: NetP %v with memo, %v with reference", seed, hops, a, b)
			}
		}
	}
}

// TestRecycledMemoMatchesReference hands every planner recycled scoring
// scratch, as memoPool does, and requires the same plans and
// bitwise-equal NetP as the reference scorer. Odd seeds get the scratch
// of the previous, differently shaped planner; even seeds get an
// oversized one laid out for no neighbors at all and filled with NaNs
// stamped with past epochs, so a recycled entry that is ever read as
// current, or a layout left over from the last owner, shows.
func TestRecycledMemoMatchesReference(t *testing.T) {
	var stale *scoreMemo
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := memoInput(r)
		base := newPlanner(DefaultConfig(), in)
		memo, ref := base.cloneScratch(), base.cloneScratch()
		ref.scoreRef = func(i int, c chanIdx) float64 { return refDeltaScore(ref, i, c) }
		if seed%2 == 0 {
			stale = &scoreMemo{epoch: 1 + r.Intn(4), cache: make([]memoEntry, 1<<14)}
			for k := range stale.cache {
				stale.cache[k] = memoEntry{epoch: r.Intn(stale.epoch + 1), val: math.NaN()}
			}
		}
		memo.memo = stale
		hops := int(seed % 3)
		memo.nbo(rand.New(rand.NewSource(seed)), hops)
		ref.nbo(rand.New(rand.NewSource(seed)), hops)
		for i := range memo.assign {
			if memo.assign[i] != ref.assign[i] {
				t.Fatalf("seed %d: AP %d planned %d with a recycled memo, %d with reference",
					seed, i, memo.assign[i], ref.assign[i])
			}
		}
		if a, b := memo.logNetP(), ref.logNetP(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %d: NetP %v with a recycled memo, %v with reference", seed, a, b)
		}
		stale = memo.memo
	}
}

// TestSeededRandMatchesFreshSource pins randPool's contract: a used
// generator, reseeded, draws exactly the stream of a fresh source.
func TestSeededRandMatchesFreshSource(t *testing.T) {
	used := seededRand(7)
	for seed := int64(-3); seed < 40; seed++ {
		used.Perm(50)
		used.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < 1000; k++ {
			if a, b := used.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, k, a, b)
			}
		}
		if a, b := used.Float64(), want.Float64(); a != b {
			t.Fatalf("seed %d: reseeded Float64 %v, fresh %v", seed, a, b)
		}
	}
	randPool.Put(used)
}
