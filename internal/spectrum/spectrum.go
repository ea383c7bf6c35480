// Package spectrum models the unlicensed spectrum available to 802.11
// devices in the United States: the 2.4 GHz ISM band, the 5 GHz U-NII
// bands, and the 6 GHz U-NII-5/-7 bands, including channel bonding
// (40/80/160 MHz), Dynamic Frequency Selection (DFS) restrictions, and
// channel overlap computation.
//
// The 5 GHz channel inventory matches Section 4.1.1 of the paper:
// twenty-five 20 MHz, twelve 40 MHz, six 80 MHz and two 160 MHz channels,
// of which only nine/four/two/zero are usable without DFS certification;
// plus three non-overlapping channels at 2.4 GHz. The 6 GHz inventory
// covers the two US standard-power ranges (U-NII-5, 5.925-6.425 GHz, and
// U-NII-7, 6.525-6.875 GHz); no 6 GHz channel requires DFS.
package spectrum

import "fmt"

// Band identifies a frequency band.
type Band int

const (
	// Band2G4 is the 2.4 GHz ISM band.
	Band2G4 Band = iota
	// Band5 is the 5 GHz U-NII band.
	Band5
	// Band6 is the 6 GHz band (US standard-power: U-NII-5 and U-NII-7).
	Band6
)

func (b Band) String() string {
	switch b {
	case Band2G4:
		return "2.4GHz"
	case Band5:
		return "5GHz"
	case Band6:
		return "6GHz"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// Width is a channel width in MHz.
type Width int

// Channel widths defined by 802.11n/ac.
const (
	W20  Width = 20
	W40  Width = 40
	W80  Width = 80
	W160 Width = 160
)

// Widths lists all widths narrow-to-wide.
var Widths = []Width{W20, W40, W80, W160}

func (w Width) String() string { return fmt.Sprintf("%dMHz", int(w)) }

// Valid reports whether w is a defined 802.11 channel width.
func (w Width) Valid() bool {
	switch w {
	case W20, W40, W80, W160:
		return true
	}
	return false
}

// Channel is one assignable (center, width) tuple.
type Channel struct {
	Band   Band
	Number int   // IEEE channel number of the center frequency
	Width  Width // occupied bandwidth
	DFS    bool  // any covered 20 MHz sub-channel requires DFS
}

func (c Channel) String() string {
	dfs := ""
	if c.DFS {
		dfs = "/DFS"
	}
	return fmt.Sprintf("ch%d@%s%s", c.Number, c.Width, dfs)
}

// CenterMHz returns the channel's center frequency in MHz.
func (c Channel) CenterMHz() float64 {
	switch c.Band {
	case Band2G4:
		return 2407 + 5*float64(c.Number)
	case Band6:
		return 5950 + 5*float64(c.Number)
	}
	return 5000 + 5*float64(c.Number)
}

// LowMHz returns the lower edge of the occupied bandwidth.
func (c Channel) LowMHz() float64 { return c.CenterMHz() - float64(c.Width)/2 }

// HighMHz returns the upper edge of the occupied bandwidth.
func (c Channel) HighMHz() float64 { return c.CenterMHz() + float64(c.Width)/2 }

// Overlaps reports whether the occupied bandwidths of a and b intersect.
// An 80 MHz transmission is corrupted by interference on any of its four
// 20 MHz sub-channels, so any spectral intersection counts (§4.1.1).
func (c Channel) Overlaps(o Channel) bool {
	if c.Band != o.Band {
		return false
	}
	return c.LowMHz() < o.HighMHz() && o.LowMHz() < c.HighMHz()
}

// Sub20Numbers returns the IEEE numbers of the 20 MHz sub-channels covered
// by c, lowest first. For a 20 MHz channel this is just {c.Number}.
func (c Channel) Sub20Numbers() []int {
	first, n := c.sub20Span()
	out := make([]int, n)
	for i := range out {
		out[i] = first + i*4
	}
	return out
}

// sub20Span returns the lowest of c's 20 MHz sub-channel numbers and how
// many there are; 20 MHz neighbours at 5 and 6 GHz are 4 channel numbers
// apart.
func (c Channel) sub20Span() (first, n int) {
	if c.Band == Band2G4 || c.Width == W20 {
		return c.Number, 1
	}
	n = int(c.Width) / 20
	return c.Number - 2*(n-1), n
}

// Primary20 returns the default primary 20 MHz sub-channel (the lowest).
func (c Channel) Primary20() int {
	first, _ := c.sub20Span()
	return first
}

// dfs5 is the set of 5 GHz 20 MHz channel numbers subject to DFS in the US
// (U-NII-2A and U-NII-2C).
var dfs5 = map[int]bool{
	52: true, 56: true, 60: true, 64: true,
	100: true, 104: true, 108: true, 112: true, 116: true,
	120: true, 124: true, 128: true, 132: true, 136: true,
	140: true, 144: true,
}

// IsDFS20 reports whether 5 GHz 20 MHz channel number n requires DFS.
func IsDFS20(n int) bool { return dfs5[n] }

var (
	us5w20  = []int{36, 40, 44, 48, 52, 56, 60, 64, 100, 104, 108, 112, 116, 120, 124, 128, 132, 136, 140, 144, 149, 153, 157, 161, 165}
	us5w40  = []int{38, 46, 54, 62, 102, 110, 118, 126, 134, 142, 151, 159}
	us5w80  = []int{42, 58, 106, 122, 138, 155}
	us5w160 = []int{50, 114}
	us24w20 = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	// NonOverlapping24 is the classic 1/6/11 plan.
	NonOverlapping24 = []int{1, 6, 11}
)

// 6 GHz US standard-power channels: U-NII-5 (ch 1-93) and U-NII-7
// (ch 117-181). The two ranges are disjoint — the U-NII-6 gap between
// them is low-power-indoor only — so bonded channels never straddle it:
// sub-channel 117 has no 40 MHz partner (ch 113 sits in U-NII-6) and the
// widest U-NII-7 160 MHz channel is ch 143.
var (
	us6w20 = []int{
		1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53, 57, 61, 65, 69, 73, 77, 81, 85, 89, 93,
		117, 121, 125, 129, 133, 137, 141, 145, 149, 153, 157, 161, 165, 169, 173, 177, 181,
	}
	us6w40 = []int{
		3, 11, 19, 27, 35, 43, 51, 59, 67, 75, 83, 91,
		123, 131, 139, 147, 155, 163, 171, 179,
	}
	us6w80  = []int{7, 23, 39, 55, 71, 87, 135, 151, 167}
	us6w160 = []int{15, 47, 79, 143}
)

func build5(numbers []int, w Width) []Channel {
	out := make([]Channel, 0, len(numbers))
	for _, n := range numbers {
		c := Channel{Band: Band5, Number: n, Width: w}
		for _, sub := range c.Sub20Numbers() {
			if dfs5[sub] {
				c.DFS = true
				break
			}
		}
		out = append(out, c)
	}
	return out
}

func build6(numbers []int, w Width) []Channel {
	out := make([]Channel, 0, len(numbers))
	for _, n := range numbers {
		// No 6 GHz channel requires DFS in the US.
		out = append(out, Channel{Band: Band6, Number: n, Width: w})
	}
	return out
}

// widthSlot indexes the per-width tables: 20/40/80/160 MHz.
func widthSlot(w Width) (int, bool) {
	switch w {
	case W20:
		return 0, true
	case W40:
		return 1, true
	case W80:
		return 2, true
	case W160:
		return 3, true
	}
	return 0, false
}

// tables holds every band's regulatory channel list per width slot, DFS
// channels included, built once. Band 0/1/2 is 2.4/5/6 GHz. The slices are
// shared and never handed out: Channels copies them.
var tables = func() (t [3][4][]Channel) {
	for _, n := range NonOverlapping24 {
		t[Band2G4][0] = append(t[Band2G4][0], Channel{Band: Band2G4, Number: n, Width: W20})
	}
	for i, src := range [][]int{us5w20, us5w40, us5w80, us5w160} {
		t[Band5][i] = build5(src, Widths[i])
	}
	for i, src := range [][]int{us6w20, us6w40, us6w80, us6w160} {
		t[Band6][i] = build6(src, Widths[i])
	}
	return t
}()

// table returns the shared regulatory list for band and width (nil when
// the band has no such width). Bands other than 2.4 and 6 GHz read as
// 5 GHz.
func table(band Band, w Width) []Channel {
	slot, ok := widthSlot(w)
	if !ok {
		return nil
	}
	switch band {
	case Band2G4, Band6:
		return tables[band][slot]
	}
	return tables[Band5][slot]
}

// Channels returns the US-regulatory channel list for band and width.
// When allowDFS is false, channels whose bandwidth touches a DFS
// sub-channel are excluded. The result is freshly allocated.
//
// The 2.4 GHz band only supports 20 MHz here: 40 MHz at 2.4 GHz is
// catastrophic in enterprise deployments and Meraki APs do not use it.
func Channels(band Band, w Width, allowDFS bool) []Channel {
	all := table(band, w)
	if all == nil {
		return nil
	}
	out := make([]Channel, 0, len(all))
	for _, c := range all {
		if allowDFS || !c.DFS {
			out = append(out, c)
		}
	}
	return out
}

// AllChannels returns every assignable channel on band up to maxWidth.
func AllChannels(band Band, maxWidth Width, allowDFS bool) []Channel {
	var out []Channel
	for _, w := range Widths {
		if w > maxWidth {
			break
		}
		out = append(out, Channels(band, w, allowDFS)...)
	}
	return out
}

// ChannelAt returns the channel with the given band/number/width, or false
// if it is not a valid US channel.
func ChannelAt(band Band, number int, w Width) (Channel, bool) {
	for _, c := range table(band, w) {
		if c.Number == number {
			return c, true
		}
	}
	return Channel{}, false
}

// Narrower returns the same spectrum position at the next narrower width,
// anchored at the primary 20 MHz sub-channel. Narrowing a 20 MHz channel
// returns it unchanged.
func Narrower(c Channel) Channel {
	if c.Width == W20 {
		return c
	}
	want := c.Primary20()
	for _, cand := range table(c.Band, c.Width/2) {
		if cand.Primary20() == want {
			return cand
		}
	}
	// Should be unreachable for valid channels; fall back to 20 MHz primary.
	out, _ := ChannelAt(c.Band, want, W20)
	return out
}

// Wider returns the bonded channel one width step up that contains c, or
// ok=false if no such US channel exists (e.g. widening ch165).
func Wider(c Channel) (Channel, bool) {
	if c.Band == Band2G4 || c.Width == W160 {
		return Channel{}, false
	}
	first, n := c.sub20Span()
	last := first + 4*(n-1)
	for _, cand := range table(c.Band, c.Width*2) {
		// cand holds all of c's sub-channels: c's run of numbers lies
		// inside cand's and on the same 4-apart grid.
		cf, cn := cand.sub20Span()
		if first >= cf && last <= cf+4*(cn-1) && (first-cf)%4 == 0 {
			return cand, true
		}
	}
	return Channel{}, false
}

// CACDuration is the Channel Availability Check wait mandated before
// transmitting on a DFS channel (§4.5.2): one minute, expressed in
// microseconds to match sim.Time.
const CACDuration = 60 * 1000 * 1000
