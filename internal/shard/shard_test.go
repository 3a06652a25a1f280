package shard

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

const us = sim.Microsecond

// build partitions a K=4 fat-tree (16 hosts, 20 switches, 20 us links).
// Pods stay whole and cores spread round-robin, so every pair of shards
// shares a boundary and the lookahead is one link delay.
func build(t *testing.T, shards int) *Fabric {
	t.Helper()
	control := sim.NewEngine()
	ft := topology.NewFatTree(control, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	f, err := Build(control, &ft.Network, shards)
	if err != nil {
		t.Fatal(err)
	}
	if la := sim.Time(f.Stats().LookaheadNs); shards > 1 && la != 20*us {
		t.Fatalf("lookahead %v, want 20us", la)
	}
	return f
}

// boundary returns the outbox carrying deliveries from shard src to dst.
func boundary(t *testing.T, f *Fabric, src, dst int) *outbox {
	t.Helper()
	for _, ob := range f.outboxes {
		if ob.src == src && ob.dst == f.engines[dst] {
			return ob
		}
	}
	t.Fatalf("no boundary from shard %d to shard %d", src, dst)
	return nil
}

// tick keeps a shard busy: one local event every 5 us up to end.
func tick(e *sim.Engine, end sim.Time) {
	for at := sim.Time(0); at <= end; at += 5 * us {
		e.At(at, func() {})
	}
}

// fired is one callback and the time its own shard's clock showed.
type fired struct {
	name string
	at   sim.Time
}

// TestDeliveryOrder: a cross-shard send is realised at exactly the time
// the sender asked for, and deliveries sharing a nanosecond fire after
// the destination's local events, then by (source shard, send order),
// whichever barrier committed them. The schedule runs against that order:
// the highest source shard sends two windows before the lowest, so its
// deliveries reach the destination heap first, and the local event is
// pushed last of all.
func TestDeliveryOrder(t *testing.T) {
	f := build(t, 4)
	dst := f.engines[3]
	const due = 70 * us
	var log []fired
	rec := func(a any) { log = append(log, fired{a.(string), dst.Now()}) }
	send := func(src int, at, due sim.Time, names ...string) {
		ob := boundary(t, f, src, 3)
		f.engines[src].At(at, func() {
			for _, n := range names {
				ob.AtArg(due, rec, n)
			}
		})
	}
	send(2, 10*us, due, "2a", "2b")
	send(1, 30*us, due, "1a")
	send(0, 50*us, due, "0a", "0b") // one lookahead ahead: the tightest a link can ask for
	send(1, 50*us, due, "1b")
	send(0, 50*us+1, due+1, "0c")
	dst.At(69*us, func() { dst.AtArg(due, rec, "local") })

	if stopped, end := f.Run(sim.Millisecond); stopped || end != sim.Millisecond {
		t.Errorf("Run = (%v, %v), want (false, 1ms)", stopped, end)
	}
	want := []fired{
		{"local", due}, {"0a", due}, {"0b", due}, {"1a", due}, {"1b", due}, {"2a", due}, {"2b", due},
		{"0c", due + 1},
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("deliveries fired as\n%v, want\n%v", log, want)
	}
}

// arrivalLog is a host endpoint noting when each packet reached it.
type arrivalLog struct {
	eng *sim.Engine
	at  []sim.Time
}

func (a *arrivalLog) HandlePacket(*netem.Packet) { a.at = append(a.at, a.eng.Now()) }

// journeys sends one packet of a single flow from the first host to the
// last — six links, at least one of them a boundary on a partitioned
// fabric — at each of the given instants, runs the fabric for 10 ms and
// returns the arrival instants.
func journeys(t *testing.T, f *Fabric, at []sim.Time) []sim.Time {
	t.Helper()
	src, dst := f.net.Hosts[0], f.net.Hosts[len(f.net.Hosts)-1]
	if len(f.engines) > 0 && src.Engine() == dst.Engine() {
		t.Fatal("first and last host share a shard")
	}
	got := &arrivalLog{eng: dst.Engine()}
	dst.Register(1, 0, got)
	for _, when := range at {
		src.Engine().At(when, func() {
			p := src.NewPacket()
			p.Src, p.Dst = src.ID(), dst.ID()
			p.SrcPort, p.DstPort = 10000, 80
			p.Size = 1500
			p.FlowID, p.Subflow = 1, 0
			p.Flags = netem.FlagData
			src.Send(p)
		})
	}
	if stopped, end := f.Run(10 * sim.Millisecond); stopped || end != 10*sim.Millisecond {
		t.Errorf("Run = (%v, %v), want (false, 10ms)", stopped, end)
	}
	return got.at
}

// sendTimes: a lone packet, two back to back (the second queues behind
// the first at every hop), and one long after.
var sendTimes = []sim.Time{us, 300 * us, 300 * us, 5 * sim.Millisecond}

// TestPacketsArriveWhenTheSequentialEngineSays: with a single flow in the
// network no two events tie, so every hop across a boundary link — tx
// side on one shard, delivery through the outbox on another — must land
// the packet at exactly the sequential instant.
func TestPacketsArriveWhenTheSequentialEngineSays(t *testing.T) {
	seq := build(t, 1)
	want := journeys(t, seq, sendTimes)
	if len(want) != len(sendTimes) {
		t.Fatalf("sequential fabric delivered %d of %d packets", len(want), len(sendTimes))
	}
	if st := seq.Stats(); st != (metrics.ShardStats{Shards: 1}) {
		t.Errorf("direct fabric Stats = %+v, want {Shards: 1}", st)
	}
	f := build(t, 2)
	if got := journeys(t, f, sendTimes); !reflect.DeepEqual(got, want) {
		t.Errorf("2-shard arrivals %v, sequential %v", got, want)
	}
	if st := f.Stats(); st.Windows == 0 || st.Barriers <= st.Windows {
		t.Errorf("coordinator did not run: %+v", st)
	}
}

// TestElisionAndReentry: a shard with nothing below the window edge is
// left out of the window, and is back in for the one window that holds a
// delivery committed to it.
func TestElisionAndReentry(t *testing.T) {
	f := build(t, 2)
	tick(f.engines[0], 300*us)
	var got []sim.Time
	ob := boundary(t, f, 0, 1)
	f.engines[0].At(100*us, func() {
		ob.AtArg(120*us, func(any) { got = append(got, f.engines[1].Now()) }, nil)
	})
	f.Run(sim.Millisecond)
	if !reflect.DeepEqual(got, []sim.Time{120 * us}) {
		t.Errorf("delivery to the idle shard fired at %v, want once at 120us", got)
	}
	// Shard 0 has an event in every window; shard 1 in exactly one.
	if st := f.Stats(); st.Windows < 2 || st.ElidedWakeups != st.Windows-1 {
		t.Errorf("%d windows, %d elided wakeups, want all but one window to elide shard 1", st.Windows, st.ElidedWakeups)
	}
}

// TestDeferredCallbacksAndStop: completions deferred on shard threads
// replay on the control thread in (time, shard) order with their own
// firing time, and one that calls Stop ends the run at that time: later
// completions of the same window are dropped, and no shard runs more
// than the rest of that window past it.
func TestDeferredCallbacksAndStop(t *testing.T) {
	f := build(t, 2)
	var log []fired
	deferAt := func(shard int, at sim.Time, name string, stop bool) {
		f.engines[shard].At(at, func() {
			f.Defer(shard, func(at sim.Time) {
				log = append(log, fired{name, at})
				if stop {
					f.Stop()
				}
			})
		})
	}
	deferAt(1, 30*us, "b1", false)
	deferAt(0, 30*us, "b0", false)
	deferAt(0, 25*us, "a", false)
	deferAt(1, 50*us, "stop", true)
	deferAt(0, 55*us, "dropped", false)
	var last sim.Time // shard 0's latest event
	for at := sim.Time(0); at <= 500*us; at += 5 * us {
		f.engines[0].At(at, func() { last = f.engines[0].Now() })
	}

	stopped, end := f.Run(sim.Millisecond)
	if !stopped || end != 50*us {
		t.Errorf("Run = (%v, %v), want (true, 50us)", stopped, end)
	}
	want := []fired{{"a", 25 * us}, {"b0", 30 * us}, {"b1", 30 * us}, {"stop", 50 * us}}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("deferred callbacks replayed as %v, want %v", log, want)
	}
	if last < 50*us || last >= 50*us+sim.Time(f.Stats().LookaheadNs) {
		t.Errorf("shard 0 ran to %v, want within one lookahead past the stop at 50us", last)
	}
}

// TestResetReproducesRun: after Reset the same schedule yields the same
// arrivals and the same coordinator accounting as on the fresh fabric,
// and between runs Stats is back to what Build set.
func TestResetReproducesRun(t *testing.T) {
	f := build(t, 2)
	built := f.Stats()
	if want := (metrics.ShardStats{Shards: 2, Mode: "conservative", LookaheadNs: int64(20 * us)}); built != want {
		t.Errorf("Stats after Build = %+v, want %+v", built, want)
	}
	first, firstStats := journeys(t, f, sendTimes), f.Stats()
	f.control.Reset()
	f.net.Reset(0)
	f.Reset()
	if st := f.Stats(); st != built {
		t.Errorf("Stats after Reset = %+v, want %+v", st, built)
	}
	second, secondStats := journeys(t, f, sendTimes), f.Stats()
	if len(first) != len(sendTimes) || !reflect.DeepEqual(first, second) {
		t.Errorf("arrivals %v on the fresh fabric, %v after Reset", first, second)
	}
	if firstStats != secondStats {
		t.Errorf("Stats %+v on the fresh fabric, %+v after Reset", firstStats, secondStats)
	}
}

// workersLeft counts live worker goroutines. A worker that has just
// signalled the WaitGroup may still be returning, so a non-zero count is
// rechecked after yielding, a bounded number of times.
func workersLeft() int {
	buf := make([]byte, 1<<20)
	n := 0
	for try := 0; try < 1000; try++ {
		n = strings.Count(string(buf[:runtime.Stack(buf, true)]), "shard.(*worker).run(")
		if n == 0 {
			break
		}
		runtime.Gosched()
	}
	return n
}

// TestWorkersExitWithRun: Run owns its worker goroutines. Once it
// returns, none is left, whether the run reached its horizon or was
// stopped by a deferred completion.
func TestWorkersExitWithRun(t *testing.T) {
	cases := []struct {
		name string
		run  func(f *Fabric) bool // runs f; false if Run ended some other way
	}{
		{"horizon", func(f *Fabric) bool {
			stopped, end := f.Run(sim.Millisecond)
			return !stopped && end == sim.Millisecond
		}},
		{"stop", func(f *Fabric) bool {
			f.engines[3].At(100*us, func() { f.Defer(3, func(sim.Time) { f.Stop() }) })
			stopped, end := f.Run(sim.Millisecond)
			return stopped && end == 100*us
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := build(t, 4)
			for _, e := range f.engines {
				tick(e, 500*us)
			}
			if !c.run(f) {
				t.Fatalf("Run did not end by %s", c.name)
			}
			if n := workersLeft(); n != 0 {
				t.Errorf("%d worker goroutines outlived Run", n)
			}
		})
	}
}

// crossTraffic sends a packet from every host to the hosts 5 and 9 places
// on, every 40 us for 2 ms, so boundary links queue, same-instant arrivals
// tie and every shard has work in most windows. It runs the fabric for
// 5 ms and returns each host's arrivals in the order they fired.
func crossTraffic(t *testing.T, f *Fabric) [][]fired {
	t.Helper()
	hosts := f.net.Hosts
	got := make([][]fired, len(hosts))
	for i, src := range hosts {
		for _, hop := range []int{5, 9} {
			j := (i + hop) % len(hosts)
			dst, flow := hosts[j], uint32(i*len(hosts)+j)
			dst.Register(uint64(flow), 0, endpointFunc(func(*netem.Packet) {
				got[j] = append(got[j], fired{fmt.Sprint(flow), dst.Engine().Now()})
			}))
			for at := sim.Time(i); at < 2*sim.Millisecond; at += 40 * us {
				src.Engine().At(at, func() {
					p := src.NewPacket()
					p.Src, p.Dst = src.ID(), dst.ID()
					p.SrcPort, p.DstPort = 10000, 80
					p.Size = 1500
					p.FlowID, p.Subflow = flow, 0
					p.Flags = netem.FlagData
					src.Send(p)
				})
			}
		}
	}
	if stopped, end := f.Run(5 * sim.Millisecond); stopped || end != 5*sim.Millisecond {
		t.Errorf("Run = (%v, %v), want (false, 5ms)", stopped, end)
	}
	return got
}

type endpointFunc func(*netem.Packet)

func (fn endpointFunc) HandlePacket(p *netem.Packet) { fn(p) }

// TestThreadCountDoesNotChangeRun: how many OS threads carry the shards
// decides only how fast a run goes. At 2 and 4 shards, with one thread
// (every worker yields to the coordinator) and with two, the same
// schedule delivers every packet at the same instant in the same order,
// with the same coordinator accounting.
func TestThreadCountDoesNotChangeRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shards := range []int{2, 4} {
		var want [][]fired
		var wantStats metrics.ShardStats
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			f := build(t, shards)
			got := crossTraffic(t, f)
			if want == nil {
				want, wantStats = got, f.Stats()
				if wantStats.Windows == 0 {
					t.Fatalf("%d shards: no parallel window ran", shards)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d shards: arrivals at GOMAXPROCS %d differ from GOMAXPROCS 1", shards, procs)
			}
			if st := f.Stats(); st != wantStats {
				t.Errorf("%d shards: Stats %+v at GOMAXPROCS %d, %+v at 1", shards, st, procs, wantStats)
			}
		}
	}
}
