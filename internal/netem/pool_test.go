package netem

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPacketPoolRecycles checks Get returns a fully zeroed packet even
// after recycling a dirty one, and that the counters track traffic.
func TestPacketPoolRecycles(t *testing.T) {
	pp := NewPacketPool()
	p := pp.Get()
	p.Src, p.Dst = 3, 4
	p.Flags = FlagData | FlagAck | FlagRetx | FlagCE | FlagEchoCE | FlagEchoDup
	p.Seq, p.AckSeq, p.DataSeq = 100, 200, 300
	p.Hops = 7
	pp.Put(p)
	q := pp.Get()
	if q != p {
		t.Fatal("pool did not reuse the recycled packet")
	}
	if *q != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *q)
	}
	if pp.Gets != 2 || pp.Recycled != 1 {
		t.Errorf("counters = %d gets / %d recycled, want 2/1", pp.Gets, pp.Recycled)
	}
}

// TestPacketOneCacheLine pins the packet layout: 64 bytes is Go's
// 64-byte size class and one cache line, where one more byte would cost
// an 80-byte object. A cold Get must allocate exactly one such object.
func TestPacketOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 64 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 64", n)
	}
	const gets = 1 << 16
	pp := NewPacketPool()
	keep := make([]*Packet, gets)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = pp.Get()
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	// Integer division forgives a few stray bytes from the runtime, never
	// a larger size class.
	if objs, bytes := after.Mallocs-before.Mallocs, (after.TotalAlloc-before.TotalAlloc)/gets; objs < gets || bytes != 64 {
		t.Errorf("%d cold Gets made %d objects of %d bytes each, want one of 64 each", gets, objs, bytes)
	}
}

// TestPacketPoolNilSafe: a nil pool must behave like plain allocation,
// so hand-built test networks need no wiring.
func TestPacketPoolNilSafe(t *testing.T) {
	var pp *PacketPool
	p := pp.Get()
	if p == nil {
		t.Fatal("nil pool Get returned nil")
	}
	pp.Put(p) // must not panic
}

// referenceFlowHash is the original closure-based FNV-1a implementation,
// kept verbatim as the fixture the unrolled hot-path version must match
// bit for bit: ECMP path choices — and therefore every simulation result
// — depend on this hash.
func referenceFlowHash(p *Packet, seed uint32) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32) ^ seed
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	mix(byte(p.Src))
	mix(byte(p.Src >> 8))
	mix(byte(p.Src >> 16))
	mix(byte(p.Src >> 24))
	mix(byte(p.Dst))
	mix(byte(p.Dst >> 8))
	mix(byte(p.Dst >> 16))
	mix(byte(p.Dst >> 24))
	mix(byte(p.SrcPort))
	mix(byte(p.SrcPort >> 8))
	mix(byte(p.DstPort))
	mix(byte(p.DstPort >> 8))
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// TestFlowHashMatchesReference pins the unrolled FlowHash to the
// original implementation over random 5-tuples and seeds.
func TestFlowHashMatchesReference(t *testing.T) {
	f := func(src, dst int32, sport, dport uint16, seed uint32) bool {
		p := &Packet{Src: NodeID(src), Dst: NodeID(dst), SrcPort: sport, DstPort: dport}
		return p.FlowHash(seed) == referenceFlowHash(p, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
