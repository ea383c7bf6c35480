package turboca

import (
	"slices"
	"testing"

	"repro/internal/spectrum"
)

// TestSharedCandidatesMatchAllChannels pins the candidate lists newPlanner
// takes from the shared table to the ones interning AllChannels in order
// produces, for every band, width cap and DFS setting, and checks that
// they cannot be appended to in place.
func TestSharedCandidatesMatchAllChannels(t *testing.T) {
	caps := []spectrum.Width{0, 10, spectrum.W20, 30, spectrum.W40, spectrum.W80, 120, spectrum.W160, 320}
	for _, band := range []spectrum.Band{spectrum.Band2G4, spectrum.Band5, spectrum.Band6} {
		for _, maxW := range caps {
			for _, dfs := range []bool{false, true} {
				in := Input{Band: band, MaxWidth: maxW, AllowDFS: dfs}
				p := newPlanner(DefaultConfig(), in)
				if maxW == 0 {
					maxW = spectrum.W160
				}
				var all, noDFS []chanIdx
				for _, c := range spectrum.AllChannels(band, maxW, dfs) {
					idx := p.internChannel(c)
					all = append(all, idx)
					if !c.DFS {
						noDFS = append(noDFS, idx)
					}
				}
				if p.ownTbl {
					t.Fatalf("%v cap %v dfs %v: a candidate fell outside the shared table", band, maxW, dfs)
				}
				if !slices.Equal(p.cands, all) || !slices.Equal(p.candNoDFS, noDFS) {
					t.Fatalf("%v cap %v dfs %v: cands %v / %v, want %v / %v",
						band, maxW, dfs, p.cands, p.candNoDFS, all, noDFS)
				}
				if cap(p.cands) != len(p.cands) || cap(p.candNoDFS) != len(p.candNoDFS) {
					t.Fatalf("%v cap %v dfs %v: shared candidate lists have spare capacity", band, maxW, dfs)
				}
			}
		}
	}
}
