// Package iq implements the issue queues (instruction windows) of the
// out-of-order core: bounded buffers from which ready instructions are
// selected oldest-first for execution. The paper's machine has three — a
// 20-entry integer queue, a 16-entry floating-point queue and a 16-entry
// memory queue (Table 3) — each co-located with its functional units in one
// clock domain of the GALS machine so dependent instructions in the same
// queue can issue back-to-back.
package iq

import (
	"fmt"

	"galsim/internal/isa"
)

// ReadyFunc reports whether a physical register's value is available to this
// queue's clock domain (operand readiness is per-domain in a GALS machine: a
// result crosses domains through a wakeup FIFO). A negative index is an
// absent operand and always ready.
type ReadyFunc func(phys int) bool

// Queue is one issue window.
type Queue struct {
	name    string
	cap     int
	entries []*isa.Instr

	inserts  uint64
	issues   uint64
	flushes  uint64
	occSum   uint64
	occTicks uint64
}

// New builds an issue queue with the given capacity. The backing array is
// sized once here; no later operation allocates.
func New(name string, capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("iq: queue %q capacity %d must be positive", name, capacity))
	}
	return &Queue{name: name, cap: capacity, entries: make([]*isa.Instr, 0, capacity)}
}

// Name returns the queue's diagnostic name.
func (q *Queue) Name() string { return q.name }

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.entries) }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.cap }

// Full reports whether the queue has no free entry.
func (q *Queue) Full() bool { return len(q.entries) >= q.cap }

// Insert adds an instruction; it panics when full (dispatch must check).
func (q *Queue) Insert(in *isa.Instr) {
	if q.Full() {
		panic(fmt.Sprintf("iq: queue %q overflow", q.name))
	}
	q.entries = append(q.entries, in)
	q.inserts++
}

// SelectReady removes up to width instructions whose operands are all
// ready, oldest (lowest sequence number) first, appending them to dst and
// returning the extended slice. Entries are kept in insertion order, which
// is program order for a single dispatcher, so a simple scan yields
// oldest-first selection. Passing a reused scratch slice as dst keeps the
// per-cycle select allocation-free; nil is also accepted. Entries are
// compacted only behind the first one taken, so a cycle that issues
// nothing writes nothing.
func (q *Queue) SelectReady(dst []*isa.Instr, width int, ready ReadyFunc) []*isa.Instr {
	taken, kept := 0, 0
	for _, in := range q.entries {
		if taken < width && ready(in.PhysSrc[0]) && ready(in.PhysSrc[1]) {
			dst = append(dst, in)
			taken++
			continue
		}
		if taken > 0 {
			q.entries[kept] = in
		}
		kept++
	}
	q.removeTaken(kept, taken)
	return dst
}

// Scan visits entries oldest-first, removing those for which take reports
// true, up to width of them, appending them to dst and returning the
// extended slice. The callback sees every entry in program order (including
// ones it declines), so it can maintain ordering state such as "an older
// store has not yet issued" — the hook the memory cluster's disambiguation
// policies use.
func (q *Queue) Scan(dst []*isa.Instr, width int, take func(*isa.Instr) bool) []*isa.Instr {
	taken, kept := 0, 0
	for _, in := range q.entries {
		if taken < width && take(in) {
			dst = append(dst, in)
			taken++
			continue
		}
		if taken > 0 {
			q.entries[kept] = in
		}
		kept++
	}
	q.removeTaken(kept, taken)
	return dst
}

// removeTaken finishes a selection pass that compacted the kept entries to
// the front: it truncates the window to them and counts the issues. A
// pass that took nothing moved nothing, so it touches no entry.
func (q *Queue) removeTaken(kept, taken int) {
	if taken == 0 {
		return
	}
	clear(q.entries[kept:])
	q.entries = q.entries[:kept]
	q.issues += uint64(taken)
}

// FlushWrongPath removes entries matching the squash predicate and returns
// how many were removed.
func (q *Queue) FlushWrongPath(doomed func(*isa.Instr) bool) int {
	kept := q.entries[:0]
	n := 0
	for _, in := range q.entries {
		if doomed(in) {
			n++
		} else {
			kept = append(kept, in)
		}
	}
	for i := len(kept); i < len(q.entries); i++ {
		q.entries[i] = nil
	}
	q.entries = kept
	q.flushes += uint64(n)
	return n
}

// Tick records an occupancy sample; call once per clock cycle of the owning
// domain.
func (q *Queue) Tick() {
	q.occTicks++
	q.occSum += uint64(len(q.entries))
}

// Stats reports the queue's activity counters.
type Stats struct {
	Inserts uint64
	Issues  uint64
	Flushes uint64
	// AvgOccupancy is the mean occupancy over sampled cycles.
	AvgOccupancy float64
}

// OccupancyCounters returns the raw occupancy accumulators (sum of
// occupancy over sampled ticks, and the tick count); interval controllers
// difference successive snapshots.
func (q *Queue) OccupancyCounters() (occSum, ticks uint64) {
	return q.occSum, q.occTicks
}

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() Stats {
	s := Stats{Inserts: q.inserts, Issues: q.issues, Flushes: q.flushes}
	if q.occTicks > 0 {
		s.AvgOccupancy = float64(q.occSum) / float64(q.occTicks)
	}
	return s
}
