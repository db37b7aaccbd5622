// Package fifo implements the communication fabric between pipeline stages:
// the synchronous pipe stages of the base processor, the mixed-clock
// asynchronous FIFOs (after Chelcea & Nowick) that replace them between
// clock domains in the GALS processor (paper §3.2, Figure 2), and the
// stretchable-clock handshake the paper discusses and rejects.
//
// One concrete Link type carries all three: its style, fixed at
// construction, selects the timing rules, so the pipeline is wired
// identically for every machine and only the constructor differs — exactly
// the paper's methodology ("in the synchronous version, communication
// between successive logic blocks is done using regular pipe stages; in the
// GALS model, asynchronous FIFOs have been used").
//
// Synchronization model. The Chelcea–Nowick FIFO exposes an empty flag
// synchronized into the consumer's clock and a full flag synchronized into
// the producer's clock, each through a two-flop synchronizer. We model that
// as visibility latency:
//
//   - an item enqueued at time t can first be observed (and dequeued) by
//     the consumer at the SyncEdges-th consumer clock edge strictly after t;
//   - the space freed by a dequeue at time t can first be observed by the
//     producer at the SyncEdges-th producer clock edge strictly after t.
//
// With SyncEdges = 2 (the default, a two-flop synchronizer) a crossing costs
// between one and two consumer cycles depending on clock alignment — low
// latency and full throughput in the steady state, matching the behaviour
// the paper reports for this design, while still charging the latency that
// produces the GALS performance gap.
//
// Squash. When a branch misprediction is repaired, in-flight wrong-path
// entries must be discarded. FlushYoungerThan removes every entry younger
// than a sequence number. Space freed by a flush is made visible to the
// producer immediately: in hardware the squash signal resets the FIFO
// pointers, and the producer is itself stalled/redirected during recovery,
// so modeling an extra synchronizer delay here would change nothing
// observable.
package fifo

import (
	"fmt"

	"galsim/internal/clock"
	"galsim/internal/isa"
	"galsim/internal/simtime"
)

// Stats counts link activity; the power model charges energy per Put/Get
// and the slip analysis aggregates TotalWait.
type Stats struct {
	Puts      uint64
	Gets      uint64
	Flushed   uint64
	TotalWait simtime.Duration // summed over all Gets
	// OccupancySum accumulates Len() sampled at each Put and Get, for a
	// cheap occupancy estimate: OccupancySum / (Puts+Gets).
	OccupancySum uint64
}

// AvgWait returns the mean residency of dequeued items.
func (s Stats) AvgWait() simtime.Duration {
	if s.Gets == 0 {
		return 0
	}
	return s.TotalWait / simtime.Duration(s.Gets)
}

type entry[T any] struct {
	item      T
	seq       isa.Seq
	enqueued  simtime.Time
	visibleAt simtime.Time
}

// linkStyle selects a link's timing rules.
type linkStyle uint8

const (
	// latch is a clocked pipe stage: an item written at one clock edge is
	// readable at the next edge of the same clock, and freed space is
	// visible to the producer immediately (same-clock full logic).
	latch linkStyle = iota
	// mixedClock is the Chelcea–Nowick mixed-timing FIFO with synchronized
	// full/empty flags (see the package comment).
	mixedClock
	// stretch is the stretchable-clock channel of §3.2: an arbiter inside
	// each ring oscillator's loop stretches one phase of both clocks while a
	// handshake and data transfer take place. The scheme is fail-safe but
	// serializes communication — "stretching the clock every cycle would
	// lead to a situation where the effective clock frequency is determined
	// not by the clock generator but by the rate of communication with other
	// synchronous modules". The link is a rendezvous of configurable width
	// (items per stretched transaction); each transaction occupies the
	// channel for the handshake duration, and its items become visible to
	// the consumer only when the handshake completes. Throughput is thus
	// bounded by the handshake rate rather than by either clock. (The stall
	// of the two synchronous blocks shows as transfer serialization rather
	// than as modulated clock edges, whose periods are closed-form.)
	stretch
)

// Link is a unidirectional, capacity-bounded, order-preserving channel
// between two pipeline stages. It is not safe for concurrent use; the
// simulator is single-threaded.
//
// Storage is a ring buffer sized to the rated capacity at construction.
// Hardware FIFOs are circular buffers of a configured depth, and modeling
// them the same way makes the per-item path allocation- and copy-free: a
// dequeue advances the head index instead of shifting the slice, and in
// steady state the backing array never grows. (A stretch link admits a new
// transaction while older items await visibility, so its physical occupancy
// can exceed the rated capacity; Put grows the ring on demand and the
// occupancy soon restabilizes.)
type Link[T any] struct {
	name  string
	style linkStyle
	cap   int        // rated capacity (the CanPut bound)
	buf   []entry[T] // backing ring; len(buf) >= cap
	head  int        // index of the oldest entry
	n     int        // occupancy
	stats Stats

	// producer/consumer are the two clocks (one clock, twice, for a latch).
	producer, consumer *clock.Domain

	// mixedClock: synchronizer depth, and for each dequeue not yet visible
	// to the producer the producer-clock time its freed slot becomes
	// visible. minFree is the earliest of them, so perceivedLen can skip
	// the prune scan until one is due.
	syncEdges int64
	freeAt    []simtime.Time
	minFree   simtime.Time

	// stretch: handshake duration, and the open transaction's end and item
	// count (a transaction carries at most cap items).
	handshake simtime.Duration
	busyUntil simtime.Time
	inFlight  int
}

func newLink[T any](name string, style linkStyle, producer, consumer *clock.Domain, capacity int) *Link[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("fifo: link %q capacity %d must be positive", name, capacity))
	}
	if producer == nil || consumer == nil {
		panic(fmt.Sprintf("fifo: link %q requires both clock domains", name))
	}
	return &Link[T]{name: name, style: style, cap: capacity, buf: make([]entry[T], capacity),
		producer: producer, consumer: consumer}
}

// NewSyncLatch builds a synchronous pipe stage of the given capacity on clk.
func NewSyncLatch[T any](name string, clk *clock.Domain, capacity int) *Link[T] {
	return newLink[T](name, latch, clk, clk, capacity)
}

// NewMixedClockFIFO builds a mixed-clock FIFO between the producer's and
// consumer's clock domains. syncEdges is the depth of the flag
// synchronizers in destination-clock edges (2 = two-flop, the default used
// by the paper's experiments; 1 models an aggressive single-flop design).
func NewMixedClockFIFO[T any](name string, producer, consumer *clock.Domain, capacity, syncEdges int) *Link[T] {
	if syncEdges < 1 {
		panic(fmt.Sprintf("fifo: fifo %q syncEdges %d must be >= 1", name, syncEdges))
	}
	l := newLink[T](name, mixedClock, producer, consumer, capacity)
	l.syncEdges = int64(syncEdges)
	return l
}

// NewStretchLink builds a stretchable-clock channel. handshake is the
// duration of one stretched transaction; width is the number of items it
// can carry (its "bus width" in items), and also its rated capacity.
func NewStretchLink[T any](name string, producer, consumer *clock.Domain, handshake simtime.Duration, width int) *Link[T] {
	if handshake <= 0 {
		panic(fmt.Sprintf("fifo: stretch link %q handshake %v must be positive", name, handshake))
	}
	l := newLink[T](name, stretch, producer, consumer, width)
	l.handshake = handshake
	return l
}

// Name returns the link's diagnostic name.
func (l *Link[T]) Name() string { return l.name }

// Len returns the number of physically present entries (independent of
// synchronized visibility).
func (l *Link[T]) Len() int { return l.n }

// Stats returns the link's activity counters.
func (l *Link[T]) Stats() Stats { return l.stats }

// slot maps a logical position (0 = head) to a buffer index.
func (l *Link[T]) slot(i int) int {
	i += l.head
	if i >= len(l.buf) {
		i -= len(l.buf)
	}
	return i
}

// perceivedLen returns a mixed-clock link's occupancy as the producer sees
// it at time now: physically present entries plus freed slots whose
// release has not yet crossed the full-flag synchronizer.
func (l *Link[T]) perceivedLen(now simtime.Time) int {
	if len(l.freeAt) > 0 && now >= l.minFree {
		kept := l.freeAt[:0]
		l.minFree = simtime.Never
		for _, t := range l.freeAt {
			if t > now {
				kept = append(kept, t)
				l.minFree = min(l.minFree, t)
			}
		}
		l.freeAt = kept
	}
	return l.n + len(l.freeAt)
}

// CanPut reports whether the producer, observing at time now, sees room
// for one more item. A stretch link accepts an item into the open
// transaction while it has width left, or starts a new one once idle.
func (l *Link[T]) CanPut(now simtime.Time) bool {
	switch l.style {
	case mixedClock:
		return l.perceivedLen(now) < l.cap
	case stretch:
		if now < l.busyUntil {
			return l.inFlight > 0 && l.inFlight < l.cap
		}
	}
	return l.n < l.cap
}

// Put enqueues an item carrying the given sequence number. It panics if
// CanPut(now) is false — producers must check first, as hardware does. The
// item becomes visible to the consumer at the next consumer edge (latch),
// after the synchronizer (mixed-clock), or at the first consumer edge at or
// after its transaction's handshake completes (stretch).
func (l *Link[T]) Put(now simtime.Time, seq isa.Seq, item T) {
	if !l.CanPut(now) {
		panic(fmt.Sprintf("fifo: link %q overflow at %v", l.name, now))
	}
	var visibleAt simtime.Time
	switch l.style {
	case latch:
		visibleAt = l.consumer.EdgeAfter(now)
	case mixedClock:
		visibleAt = l.consumer.NthEdgeAfter(now, l.syncEdges)
	case stretch:
		if now >= l.busyUntil {
			// Start a new transaction.
			l.busyUntil = now + l.handshake
			l.inFlight = 0
		}
		l.inFlight++
		visibleAt = l.consumer.EdgeAtOrAfter(l.busyUntil)
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[l.slot(l.n)] = entry[T]{item: item, seq: seq, enqueued: now, visibleAt: visibleAt}
	l.n++
	l.stats.Puts++
	l.stats.OccupancySum += uint64(l.n)
}

// grow doubles the backing ring, relinearizing entries so head returns to
// index 0. Only a stretch link's occupancy can exceed the rated capacity.
func (l *Link[T]) grow() {
	nb := make([]entry[T], 2*len(l.buf))
	for i := 0; i < l.n; i++ {
		nb[i] = l.buf[l.slot(i)]
	}
	l.buf = nb
	l.head = 0
}

// CanGet reports whether the consumer, observing at time now, sees at
// least one item.
func (l *Link[T]) CanGet(now simtime.Time) bool {
	return l.n > 0 && l.buf[l.head].visibleAt <= now
}

// Peek returns the head item without removing it; ok is false when
// CanGet(now) is false.
func (l *Link[T]) Peek(now simtime.Time) (item T, ok bool) {
	if !l.CanGet(now) {
		return item, false
	}
	return l.buf[l.head].item, true
}

// Get removes and returns the head item. wait is the time the item spent
// in the link (now − enqueue time); ok is false when CanGet(now) is false.
// A mixed-clock link's freed slot reaches the producer only after the
// full-flag synchronizer.
func (l *Link[T]) Get(now simtime.Time) (item T, wait simtime.Duration, ok bool) {
	if !l.CanGet(now) {
		return item, 0, false
	}
	e := &l.buf[l.head]
	item = e.item
	wait = now - e.enqueued
	*e = entry[T]{} // do not pin the payload
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
	l.n--
	l.stats.Gets++
	l.stats.TotalWait += wait
	l.stats.OccupancySum += uint64(l.n)
	if l.style == mixedClock {
		t := l.producer.NthEdgeAfter(now, l.syncEdges)
		if len(l.freeAt) == 0 || t < l.minFree {
			l.minFree = t
		}
		l.freeAt = append(l.freeAt, t)
	}
	return item, wait, true
}

// FlushYoungerThan discards every entry with sequence number > seq and
// returns the number discarded.
func (l *Link[T]) FlushYoungerThan(seq isa.Seq) int {
	return l.flush(func(e *entry[T]) bool { return e.seq > seq })
}

// FlushMatching discards every entry whose payload matches the predicate
// and returns the number discarded. Squash logic uses this with a
// wrong-path predicate, since post-recovery correct-path entries can carry
// sequence numbers above the squashing branch's.
func (l *Link[T]) FlushMatching(doomed func(T) bool) int {
	return l.flush(func(e *entry[T]) bool { return doomed(e.item) })
}

// flush compacts survivors toward the head in order. The write position
// never passes the read position, so the in-place ring compaction is safe;
// vacated tail slots are zeroed so flushed payloads do not pin memory.
// Freed space is visible to the producer immediately (pointer reset; see
// the package comment), and an emptied stretch link abandons its open
// transaction.
func (l *Link[T]) flush(doomed func(*entry[T]) bool) int {
	kept := 0
	for i := 0; i < l.n; i++ {
		e := &l.buf[l.slot(i)]
		if doomed(e) {
			continue
		}
		if w := l.slot(kept); w != l.slot(i) {
			l.buf[w] = *e
		}
		kept++
	}
	flushed := l.n - kept
	for i := kept; i < l.n; i++ {
		l.buf[l.slot(i)] = entry[T]{}
	}
	l.n = kept
	l.stats.Flushed += uint64(flushed)
	if l.style == stretch && l.n == 0 {
		l.busyUntil = 0
		l.inFlight = 0
	}
	return flushed
}
