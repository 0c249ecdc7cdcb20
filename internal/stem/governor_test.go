package stem

import "testing"

func TestGovernorEqualAllocationSpills(t *testing.T) {
	const fp = 100
	g, err := NewSpillGovernor(10*fp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	a := g.register()
	b := g.register()
	// Before any probe the budget splits evenly (5 rows each): of a's 8
	// builds 3 spill, b's 2 all stay.
	spilled := func(id, builds int) (n int) {
		for i := 0; i < builds; i++ {
			if !g.admitBuild(id, fp) {
				n++
			}
		}
		return n
	}
	if got := spilled(a, 8); got != 3 {
		t.Errorf("a spilled %d, want 3", got)
	}
	if got := spilled(b, 2); got != 0 {
		t.Errorf("b spilled %d, want 0", got)
	}
	if res, sp := g.BytesStats(); res != 7*fp || sp != 3*fp {
		t.Errorf("BytesStats = (%d, %d), want (%d, %d)", res, sp, 7*fp, 3*fp)
	}
}

func TestGovernorProbeProportionalAllocation(t *testing.T) {
	g, err := NewSpillGovernor(1<<20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.rebalanceEvery = 4
	hot := g.register()
	cold := g.register()
	// The hot member takes all the probes; after rebalances its allocation
	// dwarfs the cold one's.
	for i := 0; i < 64; i++ {
		g.noteProbe(hot)
	}
	if h, c := g.members[hot].allocBytes, g.members[cold].allocBytes; h <= 10*c {
		t.Errorf("hot allocation %d vs cold %d; probe-frequency allocation not working", h, c)
	}
}

// TestGovernorBudgetGoesToSpillingSteMsOnly: a windowed SteM is exempt from
// the byte budget (its eviction order contradicts spill-at-build), so it must
// not take a share of it — however often it is probed, the spilling SteMs'
// allocations add up to the whole budget.
func TestGovernorBudgetGoesToSpillingSteMsOnly(t *testing.T) {
	const budget = 1 << 20
	g, err := NewSpillGovernor(budget, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	q := twoTableQ(t, true, false)
	cnt := &Counter{}
	r := New(Config{Table: 0, Q: q, TS: cnt, Gov: g})
	s := New(Config{Table: 1, Q: q, TS: cnt, Gov: g})
	w := New(Config{Table: 1, Q: q, TS: cnt, Gov: g, Window: 4})
	if len(g.members) != 2 {
		t.Fatalf("governor has %d members, want the 2 spilling SteMs", len(g.members))
	}
	sum := func() (n int64) {
		for _, m := range g.members {
			n += m.allocBytes
		}
		return n
	}
	if got := sum(); got != budget {
		t.Fatalf("allocations sum to %d before any probe, want the budget %d", got, budget)
	}
	// The windowed SteM is the hot one; several rebalances pass.
	for i := 0; i < 4*g.rebalanceEvery; i++ {
		process(t, w, sProbe(cnt, 10))
		if i%8 == 0 {
			process(t, s, sProbe(cnt, 10))
			rp := singleton(2, 1, row(10, 100))
			rp.CompTS[1] = cnt.Next()
			rp.Built = rp.Span
			process(t, r, rp)
		}
	}
	// Each proportional share truncates to a whole byte.
	if got := sum(); got > budget || got < budget-int64(len(g.members)) {
		t.Fatalf("allocations sum to %d under a hot windowed SteM, want the budget %d", got, budget)
	}
}
