package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNYCGridShape(t *testing.T) {
	g := NewNYCGrid()
	if g.Rows() != 16 || g.Cols() != 16 || g.NumRegions() != 256 {
		t.Fatalf("NYC grid is %dx%d (%d regions), want 16x16 (256)",
			g.Rows(), g.Cols(), g.NumRegions())
	}
}

func TestGridRegionCorners(t *testing.T) {
	g := NewGrid(BBox{MinLng: 0, MinLat: 0, MaxLng: 4, MaxLat: 4}, 4, 4)
	cases := []struct {
		p    Point
		want RegionID
	}{
		{Point{Lng: 0, Lat: 0}, 0},      // SW corner
		{Point{Lng: 3.999, Lat: 0}, 3},  // SE
		{Point{Lng: 0, Lat: 3.999}, 12}, // NW
		{Point{Lng: 4, Lat: 4}, 15},     // max edge folds into last cell
		{Point{Lng: 1.5, Lat: 2.5}, 9},  // interior
		{Point{Lng: -0.1, Lat: 1}, InvalidRegion},
		{Point{Lng: 1, Lat: 4.1}, InvalidRegion},
	}
	for _, c := range cases {
		if got := g.Region(c.p); got != c.want {
			t.Errorf("Region(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestGridCenterRoundTrip(t *testing.T) {
	g := NewNYCGrid()
	for id := RegionID(0); int(id) < g.NumRegions(); id++ {
		if back := g.Region(g.Center(id)); back != id {
			t.Fatalf("Center(%d) maps back to region %d", id, back)
		}
	}
}

func TestGridRegionRoundTripProperty(t *testing.T) {
	g := NewNYCGrid()
	f := func(u, v float64) bool {
		// Map arbitrary floats into the box.
		u = abs01(u)
		v = abs01(v)
		p := Point{
			Lng: NYCBBox.MinLng + u*(NYCBBox.MaxLng-NYCBBox.MinLng),
			Lat: NYCBBox.MinLat + v*(NYCBBox.MaxLat-NYCBBox.MinLat),
		}
		id := g.Region(p)
		if !g.Valid(id) {
			return false
		}
		return g.CellBox(id).Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func abs01(x float64) float64 {
	if x != x { // NaN guard
		return 0
	}
	if x < 0 {
		x = -x
	}
	x = math.Mod(x, 1)
	if x != x {
		return 0
	}
	return x
}

func TestGridNeighbors(t *testing.T) {
	g := NewGrid(BBox{MinLng: 0, MinLat: 0, MaxLng: 3, MaxLat: 3}, 3, 3)
	// Corner has 2 neighbours, edge 3, center 4.
	if n := g.Neighbors(0); len(n) != 2 {
		t.Errorf("corner neighbours = %v, want 2", n)
	}
	if n := g.Neighbors(1); len(n) != 3 {
		t.Errorf("edge neighbours = %v, want 3", n)
	}
	if n := g.Neighbors(4); len(n) != 4 {
		t.Errorf("center neighbours = %v, want 4", n)
	}
	// Neighbour relation is symmetric.
	for id := RegionID(0); int(id) < g.NumRegions(); id++ {
		for _, nb := range g.Neighbors(id) {
			found := false
			for _, back := range g.Neighbors(nb) {
				if back == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbours: %d -> %d", id, nb)
			}
		}
	}
}

func TestGridRegionsWithinCoversSelf(t *testing.T) {
	g := NewNYCGrid()
	p := NYCBBox.Center()
	regions := g.RegionsWithin(p, 1) // 1 meter
	if len(regions) == 0 {
		t.Fatal("no regions for tiny radius")
	}
	self := g.Region(p)
	found := false
	for _, r := range regions {
		if r == self {
			found = true
		}
	}
	if !found {
		t.Error("RegionsWithin does not include the query's own region")
	}
}

func TestGridRegionsWithinLargeRadiusCoversAll(t *testing.T) {
	g := NewNYCGrid()
	regions := g.RegionsWithin(NYCBBox.Center(), 100000) // 100 km
	if len(regions) != g.NumRegions() {
		t.Errorf("100km radius covers %d regions, want all %d", len(regions), g.NumRegions())
	}
}

func TestGridRegionsWithinNegativeRadius(t *testing.T) {
	g := NewNYCGrid()
	if r := g.RegionsWithin(NYCBBox.Center(), -5); r != nil {
		t.Errorf("negative radius returned %v", r)
	}
}

func TestGridRegionsWithinOutsidePoint(t *testing.T) {
	g := NewNYCGrid()
	// Query point outside the box still yields nearby boundary regions.
	p := Point{Lng: NYCBBox.MinLng - 0.01, Lat: NYCBBox.MinLat - 0.01}
	regions := g.RegionsWithin(p, 5000)
	if len(regions) == 0 {
		t.Error("outside point with generous radius found no regions")
	}
}

// TestGridAppendRegionsWithin pins the append form to RegionsWithin:
// it extends dst with exactly RegionsWithin's regions, leaves the prefix
// untouched, and allocates nothing when dst has room.
func TestGridAppendRegionsWithin(t *testing.T) {
	g := NewNYCGrid()
	rng := rand.New(rand.NewSource(4))
	buf := make([]RegionID, 0, g.NumRegions()+1)
	for i := 0; i < 200; i++ {
		p := Point{
			Lng: NYCBBox.MinLng - 0.05 + rng.Float64()*(NYCBBox.MaxLng-NYCBBox.MinLng+0.1),
			Lat: NYCBBox.MinLat - 0.05 + rng.Float64()*(NYCBBox.MaxLat-NYCBBox.MinLat+0.1),
		}
		radius := rng.Float64()*20000 - 1000 // some negative
		want := g.RegionsWithin(p, radius)
		got := g.AppendRegionsWithin(append(buf[:0], -7), p, radius)
		if got[0] != -7 || len(got) != len(want)+1 {
			t.Fatalf("p=%v r=%v: appended %v, want prefix -7 then %v", p, radius, got, want)
		}
		for k, r := range want {
			if got[k+1] != r {
				t.Fatalf("p=%v r=%v: appended %v, want prefix -7 then %v", p, radius, got, want)
			}
		}
	}
	p := NYCBBox.Center()
	if a := testing.AllocsPerRun(20, func() { g.AppendRegionsWithin(buf[:0], p, 3000) }); a != 0 {
		t.Errorf("AppendRegionsWithin into a large enough buffer made %v allocations", a)
	}
}

func TestNewGridPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("zero rows", func() { NewGrid(NYCBBox, 0, 4) })
	assertPanics("degenerate box", func() {
		NewGrid(BBox{MinLng: 1, MinLat: 1, MaxLng: 1, MaxLat: 2}, 4, 4)
	})
}

func TestRowColInverse(t *testing.T) {
	g := NewNYCGrid()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		id := RegionID(rng.Intn(g.NumRegions()))
		row, col := g.RowCol(id)
		if RegionID(row*g.Cols()+col) != id {
			t.Fatalf("RowCol(%d) = (%d,%d) does not invert", id, row, col)
		}
	}
}
