package turboca

import "sync"

// Memoized ACC scoring. acc, narrowestFallback and bestNonDFSFallback
// score every candidate channel c of one AP i with deltaScore: i's own
// NodeP plus the NodeP of each neighbor. Within one such call everything
// but i's channel is frozen, so most of that work repeats from candidate
// to candidate:
//
//   - Neighbor j (≠ i) on channel nc sees i only through airtime's
//     contention test on its anchored sub-channels subAt[nc][0..cw]:
//     does sub-channel b overlap c? Its term is therefore a function of
//     that overlap mask alone, and is cached per (neighbor slot, mask).
//     The sub-channels are nested, so one neighbor takes at most cw+2
//     distinct masks over all candidates.
//   - i's own airtime on a sub-channel is independent of i's candidate,
//     so each level's ln channel_metric is cached per (sub-channel,
//     penalised or not). This holds even when i lists itself as a
//     neighbor (an unsanitized self-loop): every sub-channel of c shares
//     c's primary 20 MHz, so i then contends with itself on all of them,
//     whatever c is.
//
// Every cached value is the exact float64 the unmemoized computation
// produces, and deltaScore adds the cached values in the unmemoized
// order, so scores, plans and NetP are bitwise identical with or without
// the memo. The neighbor slot of such a self-loop is the one term that
// depends on c in full; it bypasses the memo.
//
// Entries are stamped with the epoch that wrote them, so opening an epoch
// is one increment. A planner takes its scratch from memoPool on first use
// and grows it if it is too small (also when copy-on-write interning grows
// the channel table); NBO workers hand it back when their rounds are done,
// so passes reuse scratch instead of allocating it. A recycled scratch
// keeps its epoch counter, so none of its entries reads as current.

// scoreMemo is one planner's scoring scratch; see the comment above.
type scoreMemo struct {
	epoch int
	// cache holds the neighbor entries, neighbor slot k's ln NodeP under
	// overlap mask at k<<4|mask, followed from nbLen on by i's own ln
	// channel_metric on sub-channel sub at nbLen + sub<<1|penalised.
	cache []memoEntry
	nbLen int
}

type memoEntry struct {
	epoch int
	val   float64
}

// memoPool recycles scoring scratch across planners and passes.
var memoPool = sync.Pool{New: func() any { return new(scoreMemo) }}

// beginScoring opens a memo epoch for scoring candidates under the
// current working state. Every entry point that calls deltaScore opens
// its own epoch: the working state may have moved since the last one.
func (p *planner) beginScoring() {
	if p.memo == nil {
		p.memo = memoPool.Get().(*scoreMemo)
	}
	m := p.memo
	m.epoch++
	m.nbLen = p.maxDeg << 4
	if n := m.nbLen + 2*len(p.tbl.chans); len(m.cache) < n {
		m.cache = make([]memoEntry, n)
	}
}

// releaseMemo returns p's scoring scratch to memoPool; p must score no
// more candidates until its next beginScoring.
func (p *planner) releaseMemo() {
	if p.memo != nil {
		memoPool.Put(p.memo)
		p.memo = nil
	}
}

// deltaScore is the NetP contribution affected by assigning c to i: its
// own NodeP plus the NodeP of every neighbor (whose airtime depends on
// i's channel). The caller opens an epoch with beginScoring before
// scoring i's candidates: cached entries hold only for that AP under an
// unchanged working state.
func (p *planner) deltaScore(i int, c chanIdx) float64 {
	if p.scoreRef != nil {
		return p.scoreRef(i, c)
	}
	m := p.memo
	prev := p.assign[i]
	p.assign[i] = c
	score := p.nodeTerm(i, c, true)
	for k, j := range p.neigh[i] {
		if p.ignore[j] {
			continue
		}
		nc := p.channelOf(j)
		if nc == noChan {
			continue
		}
		if j == i {
			score += p.logNodeP(i, c)
			continue
		}
		subs := &p.tbl.subAt[nc]
		mask := 0
		for b := widthSlot(p.tbl.chans[nc].Width); b >= 0; b-- {
			if p.tbl.overlap[subs[b]][c] {
				mask |= 1 << b
			}
		}
		e := &m.cache[k<<4|mask]
		if e.epoch != m.epoch {
			e.val, e.epoch = p.logNodeP(j, nc), m.epoch
		}
		score += e.val
	}
	p.assign[i] = prev
	return score
}

// memoLogMetric is logMetric for the epoch's own AP i, cached per
// (sub-channel, penalised).
func (p *planner) memoLogMetric(i, b int, sub chanIdx, pen float64, penalised int) float64 {
	m := p.memo
	e := &m.cache[m.nbLen+int(sub)<<1+penalised]
	if e.epoch != m.epoch {
		e.val, e.epoch = p.logMetric(i, b, sub, pen), m.epoch
	}
	return e.val
}
