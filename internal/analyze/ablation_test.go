package analyze

// Ablation experiments for the design choices DESIGN.md calls out: each
// removes one generative or policy mechanism and checks that the paper
// observation it explains disappears. Together they establish that the
// reproduction's headline results emerge from the mechanisms the paper
// names, not from tuning.

import (
	"testing"

	"cloudlens/internal/platform"
	"cloudlens/internal/workload"
)

// TestAblationHomogeneityDrivesNodeCorrelation removes the private cloud's
// workload homogeneity — the shared per-service utilization templates AND
// the diurnal-heavy pattern mix — giving private VMs the public cloud's
// independent, stable-heavy behaviour. Figure 7(a)'s private/public gap
// must collapse, establishing the paper's Insight 4: node-level similarity
// is a consequence of workload homogeneity, not of placement policy.
func TestAblationHomogeneityDrivesNodeCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation generates an extra trace")
	}
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.5
	cfg.Private.IndependentVMPatterns = true
	cfg.Private.PatternWeights = cfg.Public.PatternWeights
	ablated, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := ComputeFig7a(ablated)
	t.Logf("ablated private median VM-node correlation: %.4f", f.MedianCorrelation.Private)
	baseline := ComputeFig7a(testTrace(t))
	if f.MedianCorrelation.Private > 0.6*baseline.MedianCorrelation.Private {
		t.Fatalf("private node correlation survives the ablation: %.3f (baseline %.3f)",
			f.MedianCorrelation.Private, baseline.MedianCorrelation.Private)
	}
}

// TestAblationSharedTemplatesAloneAreNotTheWholeStory documents a subtler
// finding of the reproduction: removing only the shared templates (keeping
// the diurnal-heavy mix) does NOT collapse the correlation, because
// co-located diurnal VMs still peak together at local business hours. The
// paper's homogeneity story needs the pattern mix, not just service
// identity.
func TestAblationSharedTemplatesAloneAreNotTheWholeStory(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation generates an extra trace")
	}
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.5
	cfg.Private.IndependentVMPatterns = true
	ablated, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := ComputeFig7a(ablated)
	if f.MedianCorrelation.Private < 0.4 {
		t.Fatalf("independent-template ablation alone collapsed the correlation to %.3f; "+
			"phase alignment should have sustained it", f.MedianCorrelation.Private)
	}
}

// TestAblationNoAffinityFlattensSubscriptionsPerCluster removes the
// allocator's deployment affinity: subscriptions smear across clusters, and
// the paper's ~20x public/private subscriptions-per-cluster ratio shrinks
// because private clusters now host many partial deployments.
func TestAblationNoAffinityFlattensSubscriptionsPerCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation generates an extra trace")
	}
	cfg := workload.DefaultConfig(42)
	cfg.Scale = 0.5
	cfg.Placement = platform.AllocatorOptions{DisableAffinity: true}
	ablated, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := workload.DefaultConfig(42)
	base.Scale = 0.5
	baselineTr, err := workload.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	ratioAblated := ComputeFig1b(ablated).MedianRatio
	ratioBaseline := ComputeFig1b(baselineTr).MedianRatio
	if ratioAblated >= ratioBaseline {
		t.Fatalf("removing affinity did not shrink the ratio: %.1fx vs %.1fx",
			ratioAblated, ratioBaseline)
	}
	// Private clusters must host visibly more subscriptions without
	// affinity.
	privAblated := ComputeFig1b(ablated).Box.Private.Median
	privBaseline := ComputeFig1b(baselineTr).Box.Private.Median
	if privAblated <= privBaseline {
		t.Fatalf("private subscriptions/cluster did not grow: %.1f vs %.1f",
			privAblated, privBaseline)
	}
}

// TestAblationNoRackSpreadConcentratesServices removes fault-domain
// spreading and verifies services concentrate on fewer racks — the
// fault-tolerance property the paper says placement must provide.
func TestAblationNoRackSpreadConcentratesServices(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation generates an extra trace")
	}
	rackSpreadScore := func(cfg workload.Config) float64 {
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Mean number of distinct racks used per (service, cluster)
		// pair with at least 4 VMs.
		type key struct {
			service string
			cluster string
		}
		racks := make(map[key]map[int]bool)
		counts := make(map[key]int)
		for i := range tr.VMs {
			v := &tr.VMs[i]
			k := key{service: v.Service, cluster: string(v.Node.Cluster)}
			if racks[k] == nil {
				racks[k] = make(map[int]bool)
			}
			racks[k][v.Rack] = true
			counts[k]++
		}
		sum, n := 0.0, 0
		for k, set := range racks {
			if counts[k] < 4 {
				continue
			}
			sum += float64(len(set))
			n++
		}
		if n == 0 {
			t.Fatal("no multi-VM service placements")
		}
		return sum / float64(n)
	}

	base := workload.DefaultConfig(42)
	base.Scale = 0.5
	spreadOn := rackSpreadScore(base)

	ablated := workload.DefaultConfig(42)
	ablated.Scale = 0.5
	ablated.Placement = platform.AllocatorOptions{DisableRackSpread: true}
	spreadOff := rackSpreadScore(ablated)

	if spreadOff >= spreadOn {
		t.Fatalf("disabling rack spread did not concentrate services: %.2f vs %.2f racks/service",
			spreadOff, spreadOn)
	}
}
