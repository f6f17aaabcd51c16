package policy

import (
	"math/rand"
	"sort"

	"cloudlens/internal/core"
	"cloudlens/internal/kb"
)

// GenerateRequests builds a seeded request stream: for each policy,
// perPolicy asks against snapshot subscriptions drawn by a seeded
// generator; balance asks carry two candidate regions drawn from the
// snapshot's region universe. Deterministic in (snapshot, policies, seed).
// An empty snapshot yields asks for the unknown subscription "none".
func GenerateRequests(sn *kb.Snapshot, policies []string, seed uint64, perPolicy int) []Request {
	profiles := sn.Profiles()
	regionSet := map[string]bool{}
	for _, p := range profiles {
		for _, r := range p.Regions {
			regionSet[r] = true
		}
	}
	regions := make([]string, 0, len(regionSet))
	for r := range regionSet {
		regions = append(regions, r)
	}
	sort.Strings(regions)

	rng := rand.New(rand.NewSource(int64(seed)))
	var out []Request
	for _, pol := range policies {
		for i := 0; i < perPolicy; i++ {
			req := Request{Policy: pol, Subscription: core.SubscriptionID("none")}
			if len(profiles) > 0 {
				req.Subscription = profiles[rng.Intn(len(profiles))].Subscription
			}
			req.Cores = 1 + rng.Intn(16)
			if pol == "balance" && len(regions) > 0 {
				a := rng.Intn(len(regions))
				b := rng.Intn(len(regions))
				req.Regions = []string{regions[a]}
				if b != a {
					req.Regions = append(req.Regions, regions[b])
				}
			}
			out = append(out, req)
		}
	}
	return out
}
