package spectrum

import (
	"testing"
	"testing/quick"
)

// TestUSChannelInventory pins the §4.1.1 regulatory counts: twenty-five
// 20 MHz, twelve 40 MHz, six 80 MHz and two 160 MHz channels at 5 GHz;
// without DFS certification only nine/four/two/zero remain.
func TestUSChannelInventory(t *testing.T) {
	cases := []struct {
		w        Width
		all, non int
	}{
		{W20, 25, 9},
		{W40, 12, 4},
		{W80, 6, 2},
		{W160, 2, 0},
	}
	for _, c := range cases {
		if got := len(Channels(Band5, c.w, true)); got != c.all {
			t.Errorf("%v with DFS: %d channels, want %d", c.w, got, c.all)
		}
		if got := len(Channels(Band5, c.w, false)); got != c.non {
			t.Errorf("%v without DFS: %d channels, want %d", c.w, got, c.non)
		}
	}
	if got := len(Channels(Band2G4, W20, true)); got != 3 {
		t.Errorf("2.4 GHz: %d channels, want 3 non-overlapping", got)
	}
	if Channels(Band2G4, W40, true) != nil {
		t.Error("2.4 GHz should not offer 40 MHz")
	}
}

func TestSub20Numbers(t *testing.T) {
	c, ok := ChannelAt(Band5, 42, W80)
	if !ok {
		t.Fatal("ch42@80 not found")
	}
	want := []int{36, 40, 44, 48}
	got := c.Sub20Numbers()
	if len(got) != 4 {
		t.Fatalf("sub20 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sub20 = %v, want %v", got, want)
		}
	}
	if c.Primary20() != 36 {
		t.Fatalf("primary = %d", c.Primary20())
	}
}

func TestDFSPropagation(t *testing.T) {
	// ch50@160 spans 36-64; 52-64 are DFS, so the bonded channel is DFS.
	c, ok := ChannelAt(Band5, 50, W160)
	if !ok || !c.DFS {
		t.Fatalf("ch50@160 should exist and be DFS: %+v ok=%v", c, ok)
	}
	// ch42@80 spans 36-48, all non-DFS.
	c, _ = ChannelAt(Band5, 42, W80)
	if c.DFS {
		t.Fatal("ch42@80 should not be DFS")
	}
	if !IsDFS20(52) || IsDFS20(36) || IsDFS20(149) {
		t.Fatal("IsDFS20 misclassifies")
	}
}

func TestOverlaps(t *testing.T) {
	ch36, _ := ChannelAt(Band5, 36, W20)
	ch40, _ := ChannelAt(Band5, 40, W20)
	ch42, _ := ChannelAt(Band5, 42, W80)
	ch155, _ := ChannelAt(Band5, 155, W80)
	if ch36.Overlaps(ch40) {
		t.Error("adjacent 20 MHz channels should not overlap")
	}
	if !ch42.Overlaps(ch36) || !ch42.Overlaps(ch40) {
		t.Error("80 MHz channel must overlap its 20 MHz sub-channels")
	}
	if ch42.Overlaps(ch155) {
		t.Error("ch42 and ch155 are disjoint")
	}
	// Cross-band never overlaps.
	ch1 := Channel{Band: Band2G4, Number: 1, Width: W20}
	if ch1.Overlaps(ch36) {
		t.Error("cross-band overlap")
	}
	// 2.4 GHz adjacent channels DO overlap (5 MHz spacing, 20 MHz width).
	ch3 := Channel{Band: Band2G4, Number: 3, Width: W20}
	if !ch1.Overlaps(ch3) {
		t.Error("2.4 GHz ch1/ch3 should overlap")
	}
	ch6 := Channel{Band: Band2G4, Number: 6, Width: W20}
	if ch1.Overlaps(ch6) {
		t.Error("2.4 GHz ch1/ch6 should not overlap")
	}
}

func TestWiderNarrowerRoundTrip(t *testing.T) {
	for _, c := range Channels(Band5, W20, true) {
		wide, ok := Wider(c)
		if !ok {
			if c.Number != 165 {
				t.Errorf("only ch165 lacks a 40 MHz parent, got %v", c)
			}
			continue
		}
		if wide.Width != W40 {
			t.Errorf("Wider(%v) = %v", c, wide)
		}
		if !wide.Overlaps(c) {
			t.Errorf("Wider(%v) = %v does not contain it", c, wide)
		}
	}
	c80, _ := ChannelAt(Band5, 42, W80)
	n := Narrower(c80)
	if n.Width != W40 || n.Primary20() != 36 {
		t.Fatalf("Narrower(ch42@80) = %v", n)
	}
	n20 := Narrower(Narrower(n))
	if n20.Width != W20 || n20.Number != 36 {
		t.Fatalf("double Narrower = %v", n20)
	}
}

// Property: every bonded channel's sub-channels are valid 20 MHz US
// channels, and overlap is symmetric.
func TestQuickChannelProperties(t *testing.T) {
	all := AllChannels(Band5, W160, true)
	valid20 := map[int]bool{}
	for _, c := range Channels(Band5, W20, true) {
		valid20[c.Number] = true
	}
	for _, c := range all {
		for _, s := range c.Sub20Numbers() {
			if !valid20[s] {
				t.Fatalf("%v contains invalid sub-channel %d", c, s)
			}
		}
	}
	f := func(i, j uint8) bool {
		a := all[int(i)%len(all)]
		b := all[int(j)%len(all)]
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencies(t *testing.T) {
	ch36, _ := ChannelAt(Band5, 36, W20)
	if ch36.CenterMHz() != 5180 {
		t.Fatalf("ch36 center = %v", ch36.CenterMHz())
	}
	ch1 := Channel{Band: Band2G4, Number: 1, Width: W20}
	if ch1.CenterMHz() != 2412 {
		t.Fatalf("ch1 center = %v", ch1.CenterMHz())
	}
	if ch36.LowMHz() != 5170 || ch36.HighMHz() != 5190 {
		t.Fatalf("ch36 edges = %v..%v", ch36.LowMHz(), ch36.HighMHz())
	}
}

func TestAllChannelsWidthCap(t *testing.T) {
	for _, c := range AllChannels(Band5, W40, true) {
		if c.Width > W40 {
			t.Fatalf("width cap violated: %v", c)
		}
	}
	// 25 + 12 channels up to 40 MHz.
	if got := len(AllChannels(Band5, W40, true)); got != 37 {
		t.Fatalf("AllChannels(<=40) = %d, want 37", got)
	}
}

func TestChannelAtUnknown(t *testing.T) {
	if _, ok := ChannelAt(Band5, 37, W20); ok {
		t.Fatal("ch37 should not exist")
	}
	if _, ok := ChannelAt(Band5, 36, W160); ok {
		t.Fatal("ch36@160 should not exist (center is 50)")
	}
}

func TestStrings(t *testing.T) {
	c, _ := ChannelAt(Band5, 58, W80)
	if c.String() != "ch58@80MHz/DFS" {
		t.Fatalf("String = %q", c.String())
	}
	if Band5.String() != "5GHz" || Band2G4.String() != "2.4GHz" {
		t.Fatal("band strings")
	}
}

// TestWiderMatchesScan pins Wider, which scans the shared tables, against
// a from-scratch scan (a fresh copy of the next width's channel list,
// searched with a set for a bond holding every sub-channel) over every
// band, width and channel number, regulatory or not.
func TestWiderMatchesScan(t *testing.T) {
	scan := func(c Channel) (Channel, bool) {
		if c.Band == Band2G4 || c.Width == W160 {
			return Channel{}, false
		}
		for _, cand := range Channels(c.Band, c.Width*2, true) {
			in := map[int]bool{}
			for _, s := range cand.Sub20Numbers() {
				in[s] = true
			}
			all := true
			for _, s := range c.Sub20Numbers() {
				all = all && in[s]
			}
			if all {
				return cand, true
			}
		}
		return Channel{}, false
	}
	for _, band := range []Band{Band2G4, Band5, Band6} {
		for _, w := range Widths {
			for n := -1; n <= 200; n++ {
				for _, dfs := range []bool{false, true} {
					c := Channel{Band: band, Number: n, Width: w, DFS: dfs}
					got, gok := Wider(c)
					want, wok := scan(c)
					if got != want || gok != wok {
						t.Fatalf("Wider(%+v) = %v, %v; scan gives %v, %v", c, got, gok, want, wok)
					}
				}
			}
		}
	}
}

// TestChannelsFresh: callers append to and overwrite what Channels
// returns, so every call must hand out its own slice.
func TestChannelsFresh(t *testing.T) {
	for _, band := range []Band{Band2G4, Band5, Band6} {
		a := Channels(band, W20, true)
		want := a[0]
		a[0] = Channel{}
		_ = append(a[:1], Channel{Number: -7})
		if b := Channels(band, W20, true); b[0] != want || b[1].Number == -7 {
			t.Fatalf("%v: Channels returned a shared slice", band)
		}
	}
}
