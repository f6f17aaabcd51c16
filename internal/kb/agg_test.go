package kb

import (
	"reflect"
	"slices"
	"testing"

	"cloudlens/internal/core"
)

func regionProfiles() []*Profile {
	return []*Profile{
		{Subscription: "a", Cloud: core.Private, Regions: []string{"east", "west"},
			VMsObserved: 10, SnapshotCores: 40, MeanUtilization: 0.3,
			DominantPattern: core.PatternStable, RegionAgnosticScore: 0.9},
		{Subscription: "b", Cloud: core.Private, Regions: []string{"east"},
			VMsObserved: 4, SnapshotCores: 8, MeanUtilization: 0.5,
			DominantPattern: core.PatternDiurnal, RegionAgnosticScore: -1},
		{Subscription: "c", Cloud: core.Public, Regions: []string{"west", "east"},
			VMsObserved: 6, SnapshotCores: 12, MeanUtilization: 0.1,
			DominantPattern: core.PatternStable, RegionAgnosticScore: 0.2},
	}
}

func TestRegionsRollup(t *testing.T) {
	sn := SnapshotOf(0, 1, regionProfiles()...)
	regions := sn.Regions()

	if len(regions) != 2 || regions[0].Region != "east" || regions[1].Region != "west" {
		t.Fatalf("regions = %+v", regions)
	}
	east := regions[0]
	if east.Subscriptions != 3 || east.MultiRegionSubs != 2 {
		t.Errorf("east counts = %+v", east)
	}
	// Only "a" clears the region-agnostic threshold among east's
	// multi-region subscriptions.
	if east.RegionAgnosticSubs != 1 {
		t.Errorf("east regionAgnosticSubs = %d, want 1", east.RegionAgnosticSubs)
	}
	if east.VMsObserved != 20 || east.SnapshotCores != 60 {
		t.Errorf("east totals = %+v", east)
	}
	if want := (0.3 + 0.5 + 0.1) / 3; east.MeanUtilization != want {
		t.Errorf("east mean utilization = %v, want %v", east.MeanUtilization, want)
	}
	// Stable appears twice, periodic once.
	if east.DominantPattern != core.PatternStable {
		t.Errorf("east dominant pattern = %v", east.DominantPattern)
	}
	west := regions[1]
	if west.Subscriptions != 2 || west.MultiRegionSubs != 2 || west.VMsObserved != 16 {
		t.Errorf("west counts = %+v", west)
	}

	// Memoized on the snapshot: the same slice comes back, not a rebuild.
	if &sn.Regions()[0] != &regions[0] {
		t.Error("Regions recomputed on second call")
	}
	// And a pure function of the profile set: an identical snapshot made
	// from a different order rolls up identically.
	reversed := regionProfiles()
	slices.Reverse(reversed)
	if got := SnapshotOf(9, 9, reversed...).Regions(); !reflect.DeepEqual(got, regions) {
		t.Errorf("rollup not deterministic:\n%+v\nvs\n%+v", got, regions)
	}
}
