package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"galsim/internal/simtime"
)

type firing struct {
	dom int
	at  simtime.Time
}

// drain advances the table until the next edge lies past limit. handler,
// if not nil, runs after each firing, as a domain's tick would.
func drain(t *Table, limit simtime.Time, handler func(g int, now simtime.Time)) []firing {
	var got []firing
	for {
		g, now := t.Advance()
		if now > limit {
			return got
		}
		got = append(got, firing{g, now})
		if handler != nil {
			handler(g, now)
		}
	}
}

func TestPeriodicEvent(t *testing.T) {
	tab := Table{When: []simtime.Time{500}, Period: []simtime.Duration{2000}, Prio: []int{0}}
	got := drain(&tab, 10_000, nil)
	want := []simtime.Time{500, 2500, 4500, 6500, 8500}
	if len(got) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != (firing{0, want[i]}) {
			t.Errorf("tick %d = %+v, want at %v", i, got[i], want[i])
		}
	}
	// The edge popped past the limit has been rescheduled, like every other.
	if tab.Now != 10_500 || tab.When[0] != 12_500 {
		t.Errorf("after drain Now = %v, next edge %v; want 10500, 12500", tab.Now, tab.When[0])
	}
}

func TestThreeClockFigure4(t *testing.T) {
	// Reproduces Figure 4 of the paper: clocks with periods 2ns, 3ns, 2.5ns
	// and phases 0.5ns, 1.0ns, 0ns.
	ns := simtime.Nanosecond
	tab := Table{When: []simtime.Time{ns / 2, ns, 0},
		Period: []simtime.Duration{2 * ns, 3 * ns, 5 * ns / 2}, Prio: []int{0, 1, 2}}
	got := drain(&tab, 6*ns, nil)
	want := []firing{
		{2, 0}, {0, ns / 2}, {1, ns}, {0, 5 * ns / 2}, {2, 5 * ns / 2},
		{1, 4 * ns}, {0, 9 * ns / 2}, {2, 5 * ns},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestPriorityTieBreak(t *testing.T) {
	// Three domains with coincident edges fire in priority order, whatever
	// their index.
	tab := Table{When: []simtime.Time{5, 5, 5}, Period: []simtime.Duration{10, 10, 10}, Prio: []int{1, 0, 2}}
	got := drain(&tab, 15, nil)
	want := []int{1, 0, 2, 1, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i, g := range want {
		if got[i].dom != g {
			t.Fatalf("firing order %v, want domains %v", got, want)
		}
	}
	if tab.Now != 25 {
		t.Errorf("Now = %v after popping the first edge past the limit, want 25", tab.Now)
	}
}

func TestSetPeriod(t *testing.T) {
	// Domain 0 slows from period 10 to 25 at its edge at 20 (a DVFS retune
	// from its own handler): its next edge moves from 30 to 45 and the
	// interleaving with domain 1 (period 15) follows the new period from
	// there on.
	tab := Table{When: []simtime.Time{0, 1}, Period: []simtime.Duration{10, 15}, Prio: []int{0, 1}}
	got := drain(&tab, 100, func(g int, now simtime.Time) {
		if g == 0 && now == 20 {
			tab.SetPeriod(0, now, 25)
		}
	})
	want := []firing{{0, 0}, {1, 1}, {0, 10}, {1, 16}, {0, 20}, {1, 31}, {0, 45},
		{1, 46}, {1, 61}, {0, 70}, {1, 76}, {1, 91}, {0, 95}}
	if len(got) != len(want) {
		t.Fatalf("edges %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges %v, want %v", got, want)
		}
	}
	if tab.Period[0] != 25 || tab.When[0] != 120 {
		t.Errorf("domain 0 schedule = (next %v, period %v), want (120, 25)", tab.When[0], tab.Period[0])
	}
}

// Property: for random phases, periods and distinct priorities, the table
// fires every edge phase + k·period, in (time, priority) order — the order
// the paper's time-ordered event queue yields.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 1
		when := make([]simtime.Time, n)
		period := make([]simtime.Duration, n)
		prio := rng.Perm(n)
		var want []firing
		const limit = 5000
		for g := range when {
			period[g] = simtime.Duration(rng.Intn(300)) + 1
			when[g] = simtime.Time(rng.Intn(int(period[g])))
			for at := when[g]; at <= limit; at += period[g] {
				want = append(want, firing{g, at})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return prio[want[i].dom] < prio[want[j].dom]
		})
		tab := Table{When: when, Period: period, Prio: prio}
		got := drain(&tab, limit, nil)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a domain fires exactly floor((limit-start)/period)+1 times
// within [start, limit].
func TestPeriodicCountProperty(t *testing.T) {
	f := func(startRaw, periodRaw uint16, limitRaw uint32) bool {
		start := simtime.Time(startRaw)
		period := simtime.Duration(periodRaw%5000) + 1
		limit := simtime.Time(limitRaw % 1_000_000)
		if limit < start {
			start, limit = limit, start
		}
		tab := Table{When: []simtime.Time{start}, Period: []simtime.Duration{period}, Prio: []int{0}}
		n := len(drain(&tab, limit, nil))
		want := int((limit-start)/period) + 1
		return n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestManyRandomEventsDrainInOrder(t *testing.T) {
	// Far more domains than a topology has: the scan still yields edges in
	// time order, each domain exactly as often as its schedule says.
	rng := rand.New(rand.NewSource(42))
	const n, limit = 64, 1_000_000
	tab := Table{When: make([]simtime.Time, n), Period: make([]simtime.Duration, n), Prio: rng.Perm(n)}
	for g := range tab.When {
		tab.Period[g] = simtime.Duration(rng.Intn(50_000)) + 1
		tab.When[g] = simtime.Time(rng.Intn(limit))
	}
	wantCount := make([]int, n)
	for g := range wantCount {
		wantCount[g] = int((limit-tab.When[g])/tab.Period[g]) + 1
	}
	count := make([]int, n)
	last := simtime.Time(-1)
	for _, f := range drain(&tab, limit, nil) {
		if f.at < last {
			t.Fatalf("edge of domain %d at %v after one at %v", f.dom, f.at, last)
		}
		last = f.at
		count[f.dom]++
	}
	for g := range count {
		if count[g] != wantCount[g] {
			t.Errorf("domain %d fired %d times, want %d", g, count[g], wantCount[g])
		}
	}
}
