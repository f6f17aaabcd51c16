package classify

import (
	"testing"

	"cloudlens/internal/core"
)

// TestCheckAcceptsWhatAddProduces folds readings in [0, 1] (the extremes
// included, and runs long enough that the sums round) through each family's
// rules on fine and coarse grids, and holds Check to accepting the evidence
// after every sample and to refusing it against any other sample count or
// under the other family's rules.
func TestCheckAcceptsWhatAddProduces(t *testing.T) {
	families := []core.Family{core.FamilyCPU, core.FamilyServerless}
	for _, f := range families {
		for _, sph := range []int{3, 12, 60} {
			r := NewRules(f, sph)
			var e Evidence
			state := uint64(sph)
			for i := 0; i < 5000; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				x := float64(state>>11) / (1 << 53)
				switch i % 13 {
				case 0:
					x = 1
				case 1:
					x = 0
				}
				r.Add(&e, i, x)
				if err := r.Check(&e, i+1); err != nil {
					t.Fatalf("%s at %d steps/hour, sample %d: %v", f, sph, i, err)
				}
			}
			if f == core.FamilyCPU && r.Check(&e, 5001) == nil {
				t.Errorf("%s at %d steps/hour: evidence of 5000 samples passed for 5001", f, sph)
			}
			if f == core.FamilyServerless && r.Check(&e, e.IdleN-1) == nil {
				t.Errorf("%s at %d steps/hour: %d idle samples passed for %d samples", f, sph, e.IdleN, e.IdleN-1)
			}
			other := NewRules(families[1-int(f)], sph)
			if other.Check(&e, 5000) == nil {
				t.Errorf("%s evidence at %d steps/hour passed the %s rules", f, sph, families[1-int(f)])
			}
		}
	}
}
