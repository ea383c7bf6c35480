package turboca

import (
	"sync"

	"repro/internal/spectrum"
)

// chanIdx is a compact channel identity within one planning problem:
// candidates and current assignments are interned into a small table so
// the hot loops (overlap tests, sub-channel walks) become array lookups.
type chanIdx int

const noChan chanIdx = -1

// chanTable interns channels and precomputes the relations the metric
// evaluation needs.
type chanTable struct {
	chans []spectrum.Channel
	byKey map[chanKey]chanIdx

	// overlap[a][b] reports spectral intersection.
	overlap [][]bool
	// subAt[c][w] is the w-width sub-channel of c anchored at its
	// primary, itself interned; noChan where w exceeds c's width.
	subAt [][4]chanIdx
	// sub20s[c] lists c's 20 MHz channel numbers.
	sub20s [][]int

	// cands[n][dfs] is a planner's candidate set when its width cap
	// admits the first n (0 to 4) of spectrum.Widths and DFS is admitted
	// iff dfs is 1: indices in AllChannels order. Only shared tables fill
	// it; the lists are read-only and capacity-capped.
	cands [5][2]candList
}

// candList is a planner's candidate channels, all of them and the
// DFS-free ones.
type candList struct{ all, noDFS []chanIdx }

type chanKey struct {
	band   spectrum.Band
	number int
	width  spectrum.Width
}

func keyOf(c spectrum.Channel) chanKey {
	return chanKey{band: c.Band, number: c.Number, width: c.Width}
}

func widthSlot(w spectrum.Width) int {
	switch w {
	case spectrum.W20:
		return 0
	case spectrum.W40:
		return 1
	case spectrum.W80:
		return 2
	default:
		return 3
	}
}

func newChanTable() *chanTable {
	return &chanTable{byKey: map[chanKey]chanIdx{}}
}

// intern adds c (and its narrower anchored sub-channels) to the table and
// returns its index.
func (t *chanTable) intern(c spectrum.Channel) chanIdx {
	if c.Width == 0 {
		return noChan
	}
	if idx, ok := t.byKey[keyOf(c)]; ok {
		return idx
	}
	idx := chanIdx(len(t.chans))
	t.chans = append(t.chans, c)
	t.byKey[keyOf(c)] = idx
	t.sub20s = append(t.sub20s, c.Sub20Numbers())
	t.subAt = append(t.subAt, [4]chanIdx{noChan, noChan, noChan, noChan})

	// Anchored narrower sub-channels (may recurse into intern).
	subs := [4]chanIdx{noChan, noChan, noChan, noChan}
	cur := c
	for {
		subs[widthSlot(cur.Width)] = t.intern(cur)
		if cur.Width == spectrum.W20 {
			break
		}
		cur = spectrum.Narrower(cur)
	}
	t.subAt[idx] = subs
	return idx
}

// finalize computes the overlap matrix; call after all interning.
func (t *chanTable) finalize() {
	n := len(t.chans)
	t.overlap = make([][]bool, n)
	for i := 0; i < n; i++ {
		t.overlap[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			t.overlap[i][j] = t.chans[i].Overlaps(t.chans[j])
		}
	}
}

// channel returns the interned channel.
func (t *chanTable) channel(i chanIdx) spectrum.Channel { return t.chans[i] }

// clone returns a private copy safe to intern into: the per-channel row
// slices are copied shallowly (rows are never mutated in place — finalize
// reallocates the whole overlap matrix, and sub20s/subAt rows are written
// once at intern time), so growing the clone cannot touch the original.
func (t *chanTable) clone() *chanTable {
	cp := &chanTable{
		chans:   append([]spectrum.Channel(nil), t.chans...),
		byKey:   make(map[chanKey]chanIdx, len(t.byKey)),
		overlap: append([][]bool(nil), t.overlap...),
		subAt:   append([][4]chanIdx(nil), t.subAt...),
		sub20s:  append([][]int(nil), t.sub20s...),
	}
	for k, v := range t.byKey {
		cp.byKey[k] = v
	}
	return cp
}

// sharedTables caches one finalized superset table per band — every
// regulatory channel at every width, DFS included — shared read-only by
// all planners for that band. A fleet of 100k networks pays the table
// construction (and its O(C²) overlap matrix) once per band instead of
// once per planning pass per network, and the per-network resident state
// shrinks by the table itself. Planners that meet a channel outside the
// superset (malformed telemetry) copy-on-write via planner.internChannel.
var (
	sharedTablesMu sync.Mutex
	sharedTables   = map[spectrum.Band]*chanTable{}
)

func sharedTable(band spectrum.Band) *chanTable {
	sharedTablesMu.Lock()
	defer sharedTablesMu.Unlock()
	if t, ok := sharedTables[band]; ok {
		return t
	}
	t := newChanTable()
	for _, c := range spectrum.AllChannels(band, spectrum.W160, true) {
		t.intern(c)
	}
	t.finalize()
	for n := 1; n <= len(spectrum.Widths); n++ {
		for dfs := 0; dfs < 2; dfs++ {
			var l candList
			for _, c := range spectrum.AllChannels(band, spectrum.Widths[n-1], dfs == 1) {
				idx := t.byKey[keyOf(c)]
				l.all = append(l.all, idx)
				if !c.DFS {
					l.noDFS = append(l.noDFS, idx)
				}
			}
			l.all, l.noDFS = l.all[:len(l.all):len(l.all)], l.noDFS[:len(l.noDFS):len(l.noDFS)]
			t.cands[n][dfs] = l
		}
	}
	sharedTables[band] = t
	return t
}
