package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestBuildPermutationProperties(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, hosts := range []int{2, 3, 16, 512} {
		a := BuildPermutation(rng, hosts, 1.0/3)
		if len(a.Partner) != hosts {
			t.Fatalf("hosts=%d: partner len %d", hosts, len(a.Partner))
		}
		seen := make([]bool, hosts)
		for i, p := range a.Partner {
			if p == i {
				t.Fatalf("hosts=%d: host %d sends to itself", hosts, i)
			}
			if p < 0 || p >= hosts || seen[p] {
				t.Fatalf("hosts=%d: partner map is not a permutation", hosts)
			}
			seen[p] = true
		}
		wantLong := int(float64(hosts) / 3)
		if len(a.LongSenders) != wantLong {
			t.Errorf("hosts=%d: long senders = %d, want %d", hosts, len(a.LongSenders), wantLong)
		}
		if len(a.LongSenders)+len(a.ShortSenders) != hosts {
			t.Errorf("hosts=%d: role partition broken", hosts)
		}
		// Roles are disjoint.
		role := make(map[int]bool)
		for _, h := range a.LongSenders {
			role[h] = true
		}
		for _, h := range a.ShortSenders {
			if role[h] {
				t.Fatalf("host %d has both roles", h)
			}
		}
	}
}

func TestBuildPermutationPanics(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, tc := range []struct {
		hosts int
		frac  float64
	}{{1, 0.3}, {8, -0.1}, {8, 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("hosts=%d frac=%v did not panic", tc.hosts, tc.frac)
				}
			}()
			BuildPermutation(rng, tc.hosts, tc.frac)
		}()
	}
}

func TestPoissonShortFlows(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(42)
	a := BuildPermutation(rng, 32, 1.0/3)
	type spawn struct {
		id       uint64
		src, dst int
		at       sim.Time
	}
	var spawns []spawn
	p := &PoissonShortFlows{
		Eng:    eng,
		Assign: &a,
		Rate:   100, // per sender per second
		Size:   70_000,
		Total:  500,
		Warmup: 100 * sim.Millisecond,
		BaseID: 1000,
		Spawn: func(id uint64, src, dst int, size int64) {
			if size != 70_000 {
				t.Fatalf("size = %d", size)
			}
			spawns = append(spawns, spawn{id, src, dst, eng.Now()})
		},
	}
	p.Start(rng)
	eng.Run()

	if p.Spawned() != 500 || len(spawns) != 500 {
		t.Fatalf("spawned %d flows, want 500", len(spawns))
	}
	ids := map[uint64]bool{}
	shortSet := map[int]bool{}
	for _, s := range a.ShortSenders {
		shortSet[s] = true
	}
	for _, s := range spawns {
		if ids[s.id] {
			t.Fatalf("duplicate flow id %d", s.id)
		}
		ids[s.id] = true
		if s.id < 1000 {
			t.Fatalf("flow id %d below BaseID", s.id)
		}
		if !shortSet[s.src] {
			t.Fatalf("flow from non-short sender %d", s.src)
		}
		if s.dst != a.Partner[s.src] {
			t.Fatalf("flow %d->%d violates the permutation matrix", s.src, s.dst)
		}
		if s.at < 100*sim.Millisecond {
			t.Fatalf("flow spawned at %v, before warmup", s.at)
		}
	}
	// Aggregate rate sanity: 21 senders... hosts=32 -> 10 long, 22
	// short senders at 100 flows/s each = 2200 flows/s; 500 flows take
	// roughly 0.23s after warmup. Allow a factor of 2.
	dur := (eng.Now() - 100*sim.Millisecond).Seconds()
	wantDur := 500.0 / (float64(len(a.ShortSenders)) * 100)
	if dur < wantDur/2 || dur > wantDur*2 {
		t.Errorf("arrival duration %.3fs, want about %.3fs", dur, wantDur)
	}
}

func TestPoissonInterarrivalMean(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(7)
	a := Assignment{Partner: []int{1, 0}, ShortSenders: []int{0}}
	var times []sim.Time
	p := &PoissonShortFlows{
		Eng: eng, Assign: &a, Rate: 1000, Size: 1, Total: 5000,
		Spawn: func(id uint64, src, dst int, size int64) { times = append(times, eng.Now()) },
	}
	p.Start(rng)
	eng.Run()
	if len(times) != 5000 {
		t.Fatalf("spawned %d", len(times))
	}
	var sum float64
	for i := 1; i < len(times); i++ {
		sum += (times[i] - times[i-1]).Seconds()
	}
	mean := sum / float64(len(times)-1)
	if math.Abs(mean-0.001) > 0.0001 {
		t.Errorf("mean inter-arrival = %.6fs, want 0.001s", mean)
	}
}

func TestApplyHotspot(t *testing.T) {
	rng := sim.NewRNG(3)
	a := BuildPermutation(rng, 64, 1.0/3)
	hot := a.ShortSenders[len(a.ShortSenders)-1] // pick some host
	a.ApplyHotspot(0.5, hot)
	n := int(float64(len(a.ShortSenders)) * 0.5)
	redirected := 0
	for i := 0; i < n; i++ {
		s := a.ShortSenders[i]
		if s == hot {
			continue
		}
		if a.Partner[s] == hot {
			redirected++
		}
	}
	if redirected < n-1 {
		t.Errorf("redirected %d of first %d short senders", redirected, n)
	}
	// No self-loops ever.
	for i, p := range a.Partner {
		if p == i {
			t.Fatalf("hotspot created self-loop at %d", i)
		}
	}
}

func TestPoissonValidation(t *testing.T) {
	eng := sim.NewEngine()
	a := Assignment{Partner: []int{1, 0}, ShortSenders: []int{0}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero rate did not panic")
			}
		}()
		(&PoissonShortFlows{Eng: eng, Assign: &a, Rate: 0, Spawn: func(uint64, int, int, int64) {}}).Start(sim.NewRNG(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil spawn did not panic")
			}
		}()
		(&PoissonShortFlows{Eng: eng, Assign: &a, Rate: 1}).Start(sim.NewRNG(1))
	}()
}

func TestApplyHotspotEdgeCases(t *testing.T) {
	// Fraction 0: a no-op, partners untouched.
	rng := sim.NewRNG(5)
	a := BuildPermutation(rng, 32, 0.25)
	before := append([]int(nil), a.Partner...)
	a.ApplyHotspot(0, 1)
	for i := range before {
		if a.Partner[i] != before[i] {
			t.Fatalf("fraction 0 rewrote partner of %d", i)
		}
	}
	// Fraction 1: every short sender except the hot host itself points
	// at the hot host; long senders keep their partners.
	hot := a.ShortSenders[0]
	a.ApplyHotspot(1, hot)
	for _, s := range a.ShortSenders {
		if s == hot {
			if a.Partner[s] == hot {
				t.Fatal("hot host redirected to itself")
			}
			continue
		}
		if a.Partner[s] != hot {
			t.Errorf("short sender %d not redirected", s)
		}
	}
	for _, s := range a.LongSenders {
		if a.Partner[s] != before[s] {
			t.Errorf("long sender %d partner rewritten by hotspot", s)
		}
	}
	// Fraction above 1 is clamped by the slice bound rather than
	// panicking.
	b := BuildPermutation(sim.NewRNG(6), 16, 0)
	b.ApplyHotspot(2.5, 3)
	for _, s := range b.ShortSenders {
		if s != 3 && b.Partner[s] != 3 {
			t.Errorf("sender %d missed by over-unity fraction", s)
		}
	}
}
