// Package event is the simulator's event-driven engine, after §4.2 of Iyer &
// Marculescu (ISCA 2002). The paper's engine is an event queue ordered by
// scheduled time, where each entry carries
//
//   - a function to call at each occurrence of the event,
//   - a time at which the event is scheduled to occur,
//   - a priority number to break ties between events scheduled for the same
//     time instant, and
//   - for periodic events, a time period of repetition (used to simulate
//     clocked systems).
//
// A clocked system is simulated by inserting one periodic event per clock
// domain; processing a periodic event schedules its next instance, the next
// cycle of that clock (paper Figure 4).
//
// That is the only way the simulator uses the engine, so the queue is a
// next-edge table: per clock domain, the time of its next edge, its period
// and its priority, with a linear scan for the earliest entry. A pipeline
// topology has at most five domains, whose priorities are distinct, so
// ordering by (time, priority) is total and the schedule deterministic. The
// domain handlers live with the caller (the pipeline core); the table only
// says whose edge comes next.
package event

import "galsim/internal/simtime"

// Table is the next-edge table. The three slices are indexed by domain and
// have equal lengths; the caller builds them and may read them back (for a
// checkpoint) between calls to Advance.
type Table struct {
	When   []simtime.Time     // next edge per domain
	Period []simtime.Duration // repetition interval per domain
	Prio   []int              // tie-break rank per domain; lower fires first
	Now    simtime.Time       // time of the edge being (or last) processed
}

// Advance pops the earliest edge: it returns the firing domain and time and
// reschedules that domain one period later, before its handler runs, so the
// handler may retune its own next edge.
func (t *Table) Advance() (int, simtime.Time) {
	g := 0
	for i := 1; i < len(t.When); i++ {
		if t.When[i] < t.When[g] || (t.When[i] == t.When[g] && t.Prio[i] < t.Prio[g]) {
			g = i
		}
	}
	t.Now = t.When[g]
	t.When[g] += t.Period[g]
	return g, t.Now
}

// SetPeriod replaces domain g's schedule: its next edge one new period after
// now, repeating at the new period.
func (t *Table) SetPeriod(g int, now simtime.Time, period simtime.Duration) {
	t.When[g] = now + period
	t.Period[g] = period
}
