package explore

import (
	"fmt"
	"strings"

	"galsim/internal/machine"
)

// structNames is the pipeline-structure list in pipeline order — the
// genome's index space.
var structNames = machine.Structures()

// execStruct marks the structures whose issue queues can feed the dynamic
// DVFS controller (machine.PolicyDynamic is only valid on domains made
// solely of these).
var execStruct = func() []bool {
	out := make([]bool, len(structNames))
	for i, n := range structNames {
		out[i] = n == "int" || n == "fp" || n == "mem"
	}
	return out
}()

// genome is one candidate machine in search coordinates: a partition of
// the pipeline structures into clock domains (assign, kept canonical as a
// restricted-growth string: assign[0]==0 and each later structure's label
// is at most one past the running maximum, so group ids are ordered by
// first member) plus per-group genes (frequency choice, DVFS policy) and
// machine-wide link-geometry genes (indices into the SpaceSpec choice
// lists; index of value 0 = keep machine default).
type genome struct {
	assign []uint8
	freq   []uint8
	dvfs   []bool
	depth  uint8
	sync   uint8
}

func (g genome) groups() int {
	maxg := uint8(0)
	for _, a := range g.assign {
		if a > maxg {
			maxg = a
		}
	}
	return int(maxg) + 1
}

func (g genome) clone() genome {
	return genome{
		assign: append([]uint8(nil), g.assign...),
		freq:   append([]uint8(nil), g.freq...),
		dvfs:   append([]bool(nil), g.dvfs...),
		depth:  g.depth,
		sync:   g.sync,
	}
}

// key is the genome's identity for dedup and history lookup.
func (g genome) key() string {
	var b strings.Builder
	for _, a := range g.assign {
		fmt.Fprintf(&b, "%d.", a)
	}
	b.WriteByte('f')
	for _, f := range g.freq {
		fmt.Fprintf(&b, "%d.", f)
	}
	b.WriteByte('d')
	for _, d := range g.dvfs {
		if d {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	fmt.Fprintf(&b, "l%d s%d", g.depth, g.sync)
	return b.String()
}

// members returns the structure indices of group gi, in pipeline order.
func (g genome) members(gi int) []int {
	var out []int
	for i, a := range g.assign {
		if int(a) == gi {
			out = append(out, i)
		}
	}
	return out
}

// execOnly reports whether every structure in group gi is an execution
// structure — the precondition for a dynamic DVFS policy.
func (g genome) execOnly(gi int) bool {
	any := false
	for i, a := range g.assign {
		if int(a) == gi {
			if !execStruct[i] {
				return false
			}
			any = true
		}
	}
	return any
}

// canonicalAssign relabels an arbitrary valid grouping into restricted-
// growth form and returns the label mapping old→new (indexed by old
// label; -1 for labels with no members).
func canonicalAssign(assign []uint8) (out []uint8, remap []int) {
	out = make([]uint8, len(assign))
	remap = make([]int, 256)
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	for i, a := range assign {
		if remap[a] < 0 {
			remap[a] = next
			next++
		}
		out[i] = uint8(remap[a])
	}
	return out, remap
}

// withAssign rebuilds g around a new grouping (labels need not be
// canonical): each new group inherits the freq/dvfs genes of the old
// group of its first member, then the genome is repaired against space.
func (g genome) withAssign(assign []uint8, space SpaceSpec) genome {
	ca, _ := canonicalAssign(assign)
	k := 0
	for _, a := range ca {
		if int(a)+1 > k {
			k = int(a) + 1
		}
	}
	out := genome{assign: ca, freq: make([]uint8, k), dvfs: make([]bool, k), depth: g.depth, sync: g.sync}
	for gi := 0; gi < k; gi++ {
		for i, a := range ca {
			if int(a) == gi {
				old := g.assign[i]
				out.freq[gi] = g.freq[old]
				out.dvfs[gi] = g.dvfs[old]
				break
			}
		}
	}
	out.repair(space)
	return out
}

// repair clamps gene indices into the space and clears DVFS flags the
// machine model would reject (non-execution domains, or a space without
// the DVFS axis). Every repaired genome builds a valid machine.Spec.
func (g *genome) repair(space SpaceSpec) {
	for gi := range g.freq {
		if int(g.freq[gi]) >= len(space.FrequenciesGHz) {
			g.freq[gi] = 0
		}
	}
	for gi := range g.dvfs {
		if g.dvfs[gi] && (!space.DVFS || !g.execOnly(gi)) {
			g.dvfs[gi] = false
		}
	}
	if int(g.depth) >= len(space.LinkDepths) {
		g.depth = 0
	}
	if int(g.sync) >= len(space.SyncEdges) {
		g.sync = 0
	}
}

// defaultFreqIdx is the gene index of the 1 GHz nominal (or the lowest
// frequency if the space excludes it) — the "unchanged" choice used for
// default-gene detection and seed genomes.
func defaultFreqIdx(space SpaceSpec) uint8 {
	for i, f := range space.FrequenciesGHz {
		if f == 1.0 {
			return uint8(i)
		}
	}
	return 0
}

// defaultGenes reports whether every gene holds its default: nominal
// frequency, default link geometry, and the default DVFS policy (dynamic
// exactly on execution-only groups when the space searches DVFS — the
// builtin GALS convention).
func (g genome) defaultGenes(space SpaceSpec) bool {
	df := defaultFreqIdx(space)
	for gi := range g.freq {
		if g.freq[gi] != df {
			return false
		}
		want := space.DVFS && g.execOnly(gi)
		if g.dvfs[gi] != want {
			return false
		}
	}
	return g.depth == 0 && g.sync == 0
}

// baseGenome is the fully synchronous machine's coordinates.
func baseGenome(space SpaceSpec) genome {
	g := genome{
		assign: make([]uint8, len(structNames)),
		freq:   []uint8{defaultFreqIdx(space)},
		dvfs:   []bool{false},
	}
	return g
}

// galsGenome is the paper's five-domain machine's coordinates.
func galsGenome(space SpaceSpec) genome {
	n := len(structNames)
	g := genome{assign: make([]uint8, n), freq: make([]uint8, n), dvfs: make([]bool, n)}
	df := defaultFreqIdx(space)
	for i := 0; i < n; i++ {
		g.assign[i] = uint8(i)
		g.freq[i] = df
		g.dvfs[i] = space.DVFS && execStruct[i]
	}
	return g
}

// randomGenome draws a uniform-ish genome: a random restricted-growth
// string (not uniform over partitions, but deterministic and well spread)
// with independently random genes.
func randomGenome(r *rng, space SpaceSpec) genome {
	n := len(structNames)
	g := genome{assign: make([]uint8, n)}
	maxg := 0
	for i := 1; i < n; i++ {
		v := r.intn(maxg + 2)
		g.assign[i] = uint8(v)
		if v > maxg {
			maxg = v
		}
	}
	k := maxg + 1
	g.freq = make([]uint8, k)
	g.dvfs = make([]bool, k)
	for gi := 0; gi < k; gi++ {
		g.freq[gi] = uint8(r.intn(len(space.FrequenciesGHz)))
		if space.DVFS && g.execOnly(gi) {
			g.dvfs[gi] = r.coin()
		}
	}
	g.depth = uint8(r.intn(len(space.LinkDepths)))
	g.sync = uint8(r.intn(len(space.SyncEdges)))
	return g
}

// neighbors enumerates every single-move variant of g, in a fixed order:
// structure moves (including isolation into a fresh domain), whole-domain
// merges, per-domain frequency changes, DVFS toggles, and link-geometry
// changes. The list is deduplicated by key and never contains g itself;
// mutation picks uniformly from it, and hill-climbing scans it in order.
func neighbors(g genome, space SpaceSpec) []genome {
	k := g.groups()
	self := g.key()
	seen := map[string]bool{self: true}
	var out []genome
	add := func(c genome) {
		key := c.key()
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	// Move structure s into group t (t == k isolates s into a new group).
	for s := range g.assign {
		size := len(g.members(int(g.assign[s])))
		for t := 0; t <= k; t++ {
			if t == int(g.assign[s]) || (t == k && size == 1) {
				continue
			}
			na := append([]uint8(nil), g.assign...)
			na[s] = uint8(t)
			add(g.withAssign(na, space))
		}
	}
	// Merge two whole domains.
	for g1 := 0; g1 < k; g1++ {
		for g2 := g1 + 1; g2 < k; g2++ {
			na := append([]uint8(nil), g.assign...)
			for i, a := range na {
				if int(a) == g2 {
					na[i] = uint8(g1)
				}
			}
			add(g.withAssign(na, space))
		}
	}
	// Gene moves.
	for gi := 0; gi < k; gi++ {
		for fi := range space.FrequenciesGHz {
			if uint8(fi) == g.freq[gi] {
				continue
			}
			c := g.clone()
			c.freq[gi] = uint8(fi)
			add(c)
		}
		if space.DVFS && g.execOnly(gi) {
			c := g.clone()
			c.dvfs[gi] = !c.dvfs[gi]
			add(c)
		}
	}
	for di := range space.LinkDepths {
		if uint8(di) == g.depth {
			continue
		}
		c := g.clone()
		c.depth = uint8(di)
		add(c)
	}
	for si := range space.SyncEdges {
		if uint8(si) == g.sync {
			continue
		}
		c := g.clone()
		c.sync = uint8(si)
		add(c)
	}
	return out
}

// mutate applies one random move.
func mutate(r *rng, g genome, space SpaceSpec) genome {
	nb := neighbors(g, space)
	if len(nb) == 0 {
		return g
	}
	return nb[r.intn(len(nb))]
}

// crossover mixes two parents: each structure inherits its domain
// membership (and that domain's genes) from one parent chosen by coin
// flip. Parent labels are kept in disjoint ranges before canonicalization
// so an "a" domain and an unrelated "b" domain never merge by label
// collision; the child's partition is the common refinement of the
// inherited memberships.
func crossover(r *rng, a, b genome, space SpaceSpec) genome {
	n := len(structNames)
	mixed := make([]uint8, n)
	fromB := make([]bool, n)
	for i := 0; i < n; i++ {
		if r.coin() {
			mixed[i] = b.assign[i] + uint8(n)
			fromB[i] = true
		} else {
			mixed[i] = a.assign[i]
		}
	}
	ca, _ := canonicalAssign(mixed)
	k := 0
	for _, v := range ca {
		if int(v)+1 > k {
			k = int(v) + 1
		}
	}
	child := genome{assign: ca, freq: make([]uint8, k), dvfs: make([]bool, k)}
	for gi := 0; gi < k; gi++ {
		for i, v := range ca {
			if int(v) == gi {
				if fromB[i] {
					child.freq[gi] = b.freq[b.assign[i]]
					child.dvfs[gi] = b.dvfs[b.assign[i]]
				} else {
					child.freq[gi] = a.freq[a.assign[i]]
					child.dvfs[gi] = a.dvfs[a.assign[i]]
				}
				break
			}
		}
	}
	if r.coin() {
		child.depth = b.depth
	} else {
		child.depth = a.depth
	}
	if r.coin() {
		child.sync = b.sync
	} else {
		child.sync = a.sync
	}
	child.repair(space)
	return child
}

// partitionName renders the genome's partition as domain names joined by
// ".", each domain naming its member structures joined by "+" — e.g.
// "fetch+decode.int.fp.mem". Worst case (five singletons) is 24 bytes,
// comfortably inside the machine-name cap even with a gene suffix.
func (g genome) partitionName() string {
	k := g.groups()
	parts := make([]string, 0, k)
	for gi := 0; gi < k; gi++ {
		var names []string
		for _, s := range g.members(gi) {
			names = append(names, structNames[s])
		}
		parts = append(parts, strings.Join(names, "+"))
	}
	return strings.Join(parts, ".")
}

// spec builds the candidate machine. Genomes that are exactly a builtin's
// shape return the builtin verbatim — RunSpec canonicalization then
// collapses them onto the builtin's cache identity, so the search's
// reference points are free on any caching backend.
func (g genome) spec(space SpaceSpec) machine.Spec {
	if g.groups() == 1 && g.defaultGenes(space) {
		return machine.Base()
	}
	k := g.groups()
	s := machine.Spec{
		Domains: make([]machine.DomainSpec, 0, k),
		Assign:  make(map[string]string, len(structNames)),
	}
	for gi := 0; gi < k; gi++ {
		var names []string
		for _, st := range g.members(gi) {
			names = append(names, structNames[st])
		}
		dom := machine.DomainSpec{
			Name:    strings.Join(names, "+"),
			FreqGHz: space.FrequenciesGHz[g.freq[gi]],
		}
		if g.dvfs[gi] {
			dom.DVFS = machine.PolicyDynamic
		}
		s.Domains = append(s.Domains, dom)
		for _, st := range g.members(gi) {
			s.Assign[structNames[st]] = dom.Name
		}
	}
	depthVal := space.LinkDepths[g.depth]
	syncVal := space.SyncEdges[g.sync]
	if depthVal != 0 || syncVal != 0 {
		s.Links = make(map[string]machine.LinkSpec, 8)
		for _, cl := range machine.LinkClasses() {
			s.Links[cl] = machine.LinkSpec{Depth: depthVal, SyncEdges: syncVal}
		}
	}
	if k == 1 {
		s.GlobalClockGrid = true
	}
	name := g.partitionName()
	if !g.defaultGenes(space) {
		// Distinguish same-partition, different-gene candidates by a
		// short content digest; the partition stays readable up front.
		name += "-" + s.Digest()[:8]
	}
	s.Name = name
	if sameShape(s, machine.GALS()) {
		return machine.GALS()
	}
	return s
}

// sameShape reports whether two specs are content-identical up to their
// names.
func sameShape(a, b machine.Spec) bool {
	a.Name = b.Name
	return a.Digest() == b.Digest()
}

// gridSize counts the grid strategy's full enumeration, returning -1 once
// the count passes capGridSpace (the caller reports a LimitError). The
// count is partitions × per-partition gene combinations.
func gridSize(space SpaceSpec) int {
	total := 0
	f := len(space.FrequenciesGHz)
	links := len(space.LinkDepths) * len(space.SyncEdges)
	for _, p := range partitions(len(structNames)) {
		g := genome{assign: p}
		k := g.groups()
		combos := links
		for gi := 0; gi < k; gi++ {
			combos *= f
			if space.DVFS && g.execOnly(gi) {
				combos *= 2
			}
			if combos > capGridSpace {
				return -1
			}
		}
		total += combos
		if total > capGridSpace {
			return -1
		}
	}
	return total
}

// partitions enumerates every restricted-growth string of length n — all
// set partitions of the structures, in lexicographic order (52 for the
// five-structure pipeline).
func partitions(n int) [][]uint8 {
	var out [][]uint8
	a := make([]uint8, n)
	var rec func(i int, maxg uint8)
	rec = func(i int, maxg uint8) {
		if i == n {
			out = append(out, append([]uint8(nil), a...))
			return
		}
		for v := uint8(0); v <= maxg+1; v++ {
			a[i] = v
			next := maxg
			if v > next {
				next = v
			}
			rec(i+1, next)
		}
	}
	rec(1, 0)
	return out
}

// gridIter lazily walks the grid space: for each partition, an odometer
// over per-group frequency choices, DVFS subsets of the execution-only
// groups, and link-geometry choices. Deterministic and allocation-light;
// the space size is pre-validated against capGridSpace.
type gridIter struct {
	space SpaceSpec
	parts [][]uint8
	pi    int

	// Odometer state for parts[pi].
	g       genome // template with current partition
	execGis []int  // execution-only group indices (DVFS-toggleable)
	freqOdo []int
	dvfsOdo int
	depthI  int
	syncI   int
	fresh   bool
}

func newGridIter(space SpaceSpec) *gridIter {
	it := &gridIter{space: space, parts: partitions(len(structNames))}
	it.load()
	return it
}

// load initializes the odometer for the current partition.
func (it *gridIter) load() {
	if it.pi >= len(it.parts) {
		return
	}
	p := it.parts[it.pi]
	g := genome{assign: p}
	k := g.groups()
	g.freq = make([]uint8, k)
	g.dvfs = make([]bool, k)
	it.g = g
	it.execGis = it.execGis[:0]
	if it.space.DVFS {
		for gi := 0; gi < k; gi++ {
			if g.execOnly(gi) {
				it.execGis = append(it.execGis, gi)
			}
		}
	}
	it.freqOdo = make([]int, k)
	it.dvfsOdo, it.depthI, it.syncI = 0, 0, 0
	it.fresh = true
}

// next returns the next genome, or false when the space is exhausted.
func (it *gridIter) next() (genome, bool) {
	if it.pi >= len(it.parts) {
		return genome{}, false
	}
	if !it.fresh && !it.advance() {
		it.pi++
		it.load()
		if it.pi >= len(it.parts) {
			return genome{}, false
		}
	}
	it.fresh = false
	g := it.g.clone()
	for gi, fi := range it.freqOdo {
		g.freq[gi] = uint8(fi)
	}
	for j, gi := range it.execGis {
		g.dvfs[gi] = it.dvfsOdo&(1<<j) != 0
	}
	g.depth = uint8(it.depthI)
	g.sync = uint8(it.syncI)
	return g, true
}

// advance steps the odometer within the current partition; false on wrap.
func (it *gridIter) advance() bool {
	if it.syncI++; it.syncI < len(it.space.SyncEdges) {
		return true
	}
	it.syncI = 0
	if it.depthI++; it.depthI < len(it.space.LinkDepths) {
		return true
	}
	it.depthI = 0
	if it.dvfsOdo++; it.dvfsOdo < 1<<len(it.execGis) {
		return true
	}
	it.dvfsOdo = 0
	for i := len(it.freqOdo) - 1; i >= 0; i-- {
		if it.freqOdo[i]++; it.freqOdo[i] < len(it.space.FrequenciesGHz) {
			return true
		}
		it.freqOdo[i] = 0
	}
	return false
}
