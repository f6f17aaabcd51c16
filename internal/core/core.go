// Package core defines the shared domain vocabulary of the cloudlens
// reproduction: the two cloud platforms under comparison, the four-way
// CPU-utilization pattern taxonomy from the paper (Section IV-A), VM sizing,
// and the identifier types used across subsystems.
//
// Keeping these definitions in one dependency-free package lets the platform
// simulator, workload generator, trace model, analyses, and management
// policies agree on terminology without import cycles.
package core

import "fmt"

// Cloud identifies which of the two platforms a workload belongs to.
//
// In the paper, the private cloud hosts first-party (Microsoft) workloads
// only, while the public cloud hosts first-party and third-party (customer)
// workloads and is therefore more opaque and diverse.
type Cloud int

const (
	// Private is the first-party cloud platform.
	Private Cloud = iota + 1
	// Public is the multi-tenant cloud platform.
	Public
)

// Clouds lists both platforms in presentation order (private first, matching
// the paper's figures).
func Clouds() []Cloud { return []Cloud{Private, Public} }

// String implements fmt.Stringer.
func (c Cloud) String() string {
	switch c {
	case Private:
		return "private"
	case Public:
		return "public"
	default:
		return fmt.Sprintf("Cloud(%d)", int(c))
	}
}

// Valid reports whether c is one of the two defined platforms.
func (c Cloud) Valid() bool { return c == Private || c == Public }

// Pattern is a workload-behavior class. The first four concrete values are
// the CPU-utilization taxonomy of Section IV-A; the serverless invocation
// family adds bursty / steady / spiky over invocation rates (diurnal is
// shared between the two taxonomies).
type Pattern int

const (
	// PatternUnknown marks a series the classifier could not attribute;
	// it never appears in generated workloads.
	PatternUnknown Pattern = iota
	// PatternDiurnal is a daily periodic pattern: high during daytime, low
	// at night, with a visible weekday/weekend difference.
	PatternDiurnal
	// PatternStable has a small standard deviation around a flat level.
	PatternStable
	// PatternIrregular is mostly idle with abrupt, unpredictable spikes.
	PatternIrregular
	// PatternHourlyPeak is a special diurnal pattern with sharp peaks at
	// the hour and half-hour marks (e.g. scheduled-meeting joins).
	PatternHourlyPeak
	// PatternBursty is an invocation-rate pattern: clustered bursts of
	// calls separated by warm-but-quiet stretches, the dominant shape of
	// request-driven serverless functions.
	PatternBursty
	// PatternSteady is an invocation-rate pattern with a near-constant
	// call rate (hot functions kept warm by continuous traffic).
	PatternSteady
	// PatternSpiky is an invocation-rate pattern that is idle almost
	// always with rare, very tall spikes — the cold-start-dominated tail
	// of the function popularity distribution.
	PatternSpiky
)

// maxPattern is the highest defined pattern value; Valid and the
// checkpoint decoder domain-check against it.
const maxPattern = PatternSpiky

// Patterns lists the four concrete CPU patterns in the paper's
// presentation order. Kept for the CPU-only call sites; family-aware code
// should use Family.Patterns.
func Patterns() []Pattern {
	return []Pattern{PatternDiurnal, PatternStable, PatternIrregular, PatternHourlyPeak}
}

// AllPatterns lists every concrete pattern across both families in a fixed
// order: the CPU taxonomy first, then the serverless additions. Use it
// where patterns from any family may appear (query parsing, cross-family
// rollups); tie-breaks over it remain deterministic.
func AllPatterns() []Pattern {
	return []Pattern{
		PatternDiurnal, PatternStable, PatternIrregular, PatternHourlyPeak,
		PatternBursty, PatternSteady, PatternSpiky,
	}
}

// Valid reports whether p is inside the defined pattern domain
// (PatternUnknown included: it is a legal classifier output).
func (p Pattern) Valid() bool { return p >= PatternUnknown && p <= maxPattern }

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternUnknown:
		return "unknown"
	case PatternDiurnal:
		return "diurnal"
	case PatternStable:
		return "stable"
	case PatternIrregular:
		return "irregular"
	case PatternHourlyPeak:
		return "hourly-peak"
	case PatternBursty:
		return "bursty"
	case PatternSteady:
		return "steady"
	case PatternSpiky:
		return "spiky"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Family identifies which workload family a trace carries: which generator
// produced it, which taxonomy classifies it, and what a sample means
// (CPU utilization vs normalized invocation rate). The zero value is the
// CPU family, so traces serialized before the family tag existed decode
// unchanged.
type Family int

const (
	// FamilyCPU is the paper's family: average CPU utilization sampled on
	// a five-minute grid, classified by the Section IV-A taxonomy.
	FamilyCPU Family = iota
	// FamilyServerless is the serverless/FaaS invocation family:
	// per-function invocation counts normalized to [0, 1] of the
	// function's provisioned peak, on a finer (sub-five-minute) grid,
	// classified by the invocation-rate taxonomy.
	FamilyServerless
)

// Valid reports whether f is a defined family.
func (f Family) Valid() bool { return f == FamilyCPU || f == FamilyServerless }

// Patterns lists the family's concrete patterns in presentation order;
// classification tie-breaks follow this order.
func (f Family) Patterns() []Pattern {
	switch f {
	case FamilyServerless:
		return []Pattern{PatternBursty, PatternSteady, PatternSpiky, PatternDiurnal}
	default:
		return Patterns()
	}
}

// Has reports whether p belongs to the family's taxonomy.
func (f Family) Has(p Pattern) bool {
	for _, q := range f.Patterns() {
		if q == p {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyCPU:
		return "cpu"
	case FamilyServerless:
		return "serverless"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// VMSize is the resource request of a single VM. The paper characterizes
// VM sizes by CPU core count and memory (Figure 2).
type VMSize struct {
	Cores    int `json:"cores"`
	MemoryGB int `json:"memoryGB"`
}

// String implements fmt.Stringer.
func (s VMSize) String() string { return fmt.Sprintf("%dc/%dGB", s.Cores, s.MemoryGB) }

// Identifier types. They are distinct named types so that the compiler
// catches, say, a subscription ID used where a cluster ID was expected.
type (
	// VMID uniquely identifies a VM within a trace.
	VMID int64
	// SubscriptionID identifies a subscription (the paper's unit of
	// ownership: each user creates one or more subscriptions which
	// deploy VMs into regions).
	SubscriptionID string
	// ClusterID identifies a cluster: thousands of identically
	// configured nodes within one datacenter, dedicated to either the
	// private or the public platform.
	ClusterID string
)

// NodeRef addresses a physical node (server) as a cluster plus the node's
// index within that cluster. Nodes are stacked in racks, which serve as
// fault domains.
type NodeRef struct {
	Cluster ClusterID `json:"cluster"`
	Index   int       `json:"index"`
}

// String implements fmt.Stringer.
func (n NodeRef) String() string { return fmt.Sprintf("%s/n%03d", n.Cluster, n.Index) }
