package analytic

import (
	"fmt"
	"sort"

	"multibus/internal/topology"
)

// StructureKind says which closed-form family a topology belongs to.
type StructureKind int

const (
	// StructureIndependentGroups covers topologies whose bipartite
	// bus–module graph splits into complete-bipartite components:
	// full, single, and partial-group networks, pristine or degraded.
	StructureIndependentGroups StructureKind = iota
	// StructurePrefixClasses covers topologies whose module bus-sets form
	// a chain under inclusion: the paper's K-class networks, pristine or
	// degraded.
	StructurePrefixClasses
)

// String names the structure kind.
func (k StructureKind) String() string {
	switch k {
	case StructureIndependentGroups:
		return "independent groups"
	case StructurePrefixClasses:
		return "nested prefix classes"
	default:
		return fmt.Sprintf("StructureKind(%d)", int(k))
	}
}

// Structure is the result of classifying a topology for analysis.
// Exactly one of Groups/Classes is populated according to Kind.
type Structure struct {
	Kind    StructureKind
	Groups  []GroupSpec   // StructureIndependentGroups
	Classes []PrefixClass // StructurePrefixClasses
	// ModuleGroups maps each module to its index in Groups, or −1 for a
	// stranded module (all of its buses failed). Set for
	// StructureIndependentGroups.
	ModuleGroups []int
	// ModuleClasses maps each module to its index in Classes, or −1 for
	// a stranded module. Set for StructurePrefixClasses.
	ModuleClasses []int
	// BusGroups maps each bus to its index in Groups. Set for
	// StructureIndependentGroups.
	BusGroups []int
	// BusOrder, for StructurePrefixClasses, maps formula bus position
	// (0-based; position 0 is "bus 1", the bus every module reaches) to
	// the topology's bus index.
	BusOrder []int
}

// Classify inspects a topology's wiring and determines which closed-form
// bandwidth formula applies. It returns ErrNoClosedForm for wirings that
// are neither complete-bipartite-decomposable nor nested-prefix; those
// require the Monte-Carlo simulator.
func Classify(nw *topology.Network) (*Structure, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if s, ok := classifyGroups(nw); ok {
		return s, nil
	}
	if s, ok := classifyPrefix(nw); ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %v", ErrNoClosedForm, nw)
}

// Bandwidth evaluates the effective memory bandwidth of an arbitrary
// classifiable topology at per-module request probability x, dispatching
// to the appropriate closed form. Callers evaluating one topology at
// many rates should Classify once and use BandwidthStructure.
func Bandwidth(nw *topology.Network, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.Bandwidth(nw, x) })
}

// Summary is the closed-form evaluation of one topology at one
// per-module request probability: the figures the façade's Analysis and
// the service's /v1/analyze body report.
type Summary struct {
	// Bandwidth is the effective memory bandwidth (equations (4), (6),
	// (9), or (12) by scheme).
	Bandwidth float64
	// CrossbarBandwidth is the M·X upper reference.
	CrossbarBandwidth float64
	// BusUtilization is Bandwidth / B.
	BusUtilization float64
	// PerformanceCostRatio is Bandwidth per connection (§IV).
	PerformanceCostRatio float64
}

// Summarize evaluates a classifiable topology at x: its bandwidth, the
// crossbar reference, bus utilization, and the performance/cost ratio.
func Summarize(nw *topology.Network, x float64) (Summary, error) {
	bw, err := Bandwidth(nw, x)
	if err != nil {
		return Summary{}, err
	}
	xbar, err := BandwidthCrossbar(nw.M(), x)
	if err != nil {
		return Summary{}, err
	}
	ratio, err := PerformanceCostRatio(bw, nw.NumConnections())
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Bandwidth:            bw,
		CrossbarBandwidth:    xbar,
		BusUtilization:       bw / float64(nw.B()),
		PerformanceCostRatio: ratio,
	}, nil
}

// BandwidthStructure evaluates a pre-classified topology (the Structure
// from Classify plus the topology's bus count) with a pooled Evaluator.
// The sweep layer classifies each grid combination once and calls this
// per (rate, model) point.
func BandwidthStructure(s *Structure, buses int, x float64) (float64, error) {
	return pooledEval(func(e *Evaluator) (float64, error) { return e.BandwidthStructure(s, buses, x) })
}

// classifyGroups attempts the complete-bipartite-components decomposition.
func classifyGroups(nw *topology.Network) (*Structure, bool) {
	b, m := nw.B(), nw.M()
	// Union-find over buses; modules merge the buses they touch.
	parent := make([]int, b)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, c int) { parent[find(a)] = find(c) }

	moduleBuses := make([][]int, m)
	for j := 0; j < m; j++ {
		moduleBuses[j] = nw.BusesForModule(j)
		if len(moduleBuses[j]) == 0 {
			continue // stranded module (all its buses failed)
		}
		for _, bus := range moduleBuses[j][1:] {
			union(moduleBuses[j][0], bus)
		}
	}
	// Count buses and modules per component root.
	busCount := make(map[int]int)
	for i := 0; i < b; i++ {
		busCount[find(i)]++
	}
	modCount := make(map[int]int)
	for j := 0; j < m; j++ {
		if len(moduleBuses[j]) == 0 {
			continue // stranded module: serves nothing, member of no group
		}
		root := find(moduleBuses[j][0])
		modCount[root]++
		// Complete-bipartite check: the module must reach every bus of
		// its component, i.e. its degree equals the component bus count.
		if len(moduleBuses[j]) != busCount[root] {
			return nil, false
		}
	}
	// Deterministic group order: by smallest bus index in the component.
	roots := make([]int, 0, len(busCount))
	seen := make(map[int]bool)
	for i := 0; i < b; i++ {
		r := find(i)
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	groups := make([]GroupSpec, 0, len(roots))
	groupIdx := make(map[int]int, len(roots))
	for gi, r := range roots {
		groupIdx[r] = gi
		groups = append(groups, GroupSpec{Modules: modCount[r], Buses: busCount[r]})
	}
	moduleGroups := make([]int, m)
	for j := 0; j < m; j++ {
		if len(moduleBuses[j]) == 0 {
			moduleGroups[j] = -1
			continue
		}
		moduleGroups[j] = groupIdx[find(moduleBuses[j][0])]
	}
	busGroups := make([]int, b)
	for i := 0; i < b; i++ {
		busGroups[i] = groupIdx[find(i)]
	}
	return &Structure{
		Kind:         StructureIndependentGroups,
		Groups:       groups,
		ModuleGroups: moduleGroups,
		BusGroups:    busGroups,
	}, true
}

// classifyPrefix attempts the nested-prefix (chain of bus-sets)
// classification.
func classifyPrefix(nw *topology.Network) (*Structure, bool) {
	b, m := nw.B(), nw.M()
	type busSet struct {
		buses []int
		count int // modules with exactly this set
	}
	sets := make(map[string]*busSet)
	keyOf := func(buses []int) string {
		k := make([]byte, 0, len(buses)*3)
		for _, bus := range buses {
			k = append(k, byte(bus), byte(bus>>8), ',')
		}
		return string(k)
	}
	moduleKey := make([]string, m)
	for j := 0; j < m; j++ {
		buses := nw.BusesForModule(j)
		if len(buses) == 0 {
			continue // stranded module contributes nothing
		}
		k := keyOf(buses)
		moduleKey[j] = k
		if s, ok := sets[k]; ok {
			s.count++
		} else {
			sets[k] = &busSet{buses: buses, count: 1}
		}
	}
	if len(sets) == 0 {
		return nil, false
	}
	ordered := make([]*busSet, 0, len(sets))
	for _, s := range sets {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return len(ordered[i].buses) < len(ordered[j].buses) })
	// Chain check: each set must be a subset of the next larger one.
	for i := 1; i < len(ordered); i++ {
		if !subset(ordered[i-1].buses, ordered[i].buses) {
			return nil, false
		}
	}
	// Build the bus order: buses of the smallest set first, then each
	// set's new buses, then any dead buses (wired to nothing).
	order := make([]int, 0, b)
	inOrder := make([]bool, b)
	for _, s := range ordered {
		for _, bus := range s.buses {
			if !inOrder[bus] {
				inOrder[bus] = true
				order = append(order, bus)
			}
		}
	}
	for i := 0; i < b; i++ {
		if !inOrder[i] {
			order = append(order, i)
		}
	}
	classes := make([]PrefixClass, len(ordered))
	classIdx := make(map[string]int, len(ordered))
	for i, s := range ordered {
		classes[i] = PrefixClass{Size: s.count, PrefixLen: len(s.buses)}
		classIdx[keyOf(s.buses)] = i
	}
	moduleClasses := make([]int, m)
	for j := 0; j < m; j++ {
		if moduleKey[j] == "" {
			moduleClasses[j] = -1
			continue
		}
		moduleClasses[j] = classIdx[moduleKey[j]]
	}
	return &Structure{
		Kind:          StructurePrefixClasses,
		Classes:       classes,
		ModuleClasses: moduleClasses,
		BusOrder:      order,
	}, true
}

// subset reports whether sorted slice a ⊆ sorted slice b.
func subset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}
