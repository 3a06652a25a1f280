// Quickstart: dial a single MMPTCP connection across a FatTree and watch
// its two phases.
//
// A 300 KB transfer starts in the Packet Scatter phase (source port
// randomised per packet, one congestion window, raised duplicate-ACK
// threshold derived from the 4 equal-cost paths between the hosts). At
// 100 KB the data-volume strategy fires: the connection opens 8 MPTCP
// subflows for the remaining bytes while the scatter flow drains.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	mmptcp "repro"
)

func main() {
	eng := mmptcp.NewEngine()
	cfg := mmptcp.Config{
		Protocol: mmptcp.ProtoMMPTCP,
		Topology: mmptcp.TopoFatTree,
		K:        4, // 16 hosts, 4 pods
	}
	net, err := mmptcp.NewNetwork(eng, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// One 300 KB flow between hosts in different pods.
	conn, err := mmptcp.Dial(net, cfg, mmptcp.DialConfig{
		FlowID: 1,
		Src:    0,
		Dst:    len(net.Hosts) - 1, // a different pod
		Size:   300_000,
		RNG:    mmptcp.NewRNG(42),
	})
	if err != nil {
		log.Fatal(err)
	}

	mc, _ := mmptcp.MMPTCPConn(conn)
	mc.OnSwitch = func() {
		fmt.Printf("t=%v  phase switch: PS carried %d bytes, opening %d MPTCP subflows\n",
			eng.Now(), mc.PacketScatter().Granted(), len(mc.MPTCP().Subflows()))
	}
	conn.Receiver().OnComplete = func() {
		fmt.Printf("t=%v  transfer complete (%d bytes delivered)\n",
			eng.Now(), conn.Receiver().Delivered())
	}

	dst := len(net.Hosts) - 1
	fmt.Printf("dialing 300KB MMPTCP flow host 0 -> host %d (%d equal-cost paths, PS dup-ACK threshold %d)\n",
		dst, mmptcp.PathCount(net, 0, dst), mc.PacketScatter().DupThresh())
	conn.Start()
	eng.Run()

	st := conn.Stats()
	fmt.Printf("\nsender stats: %d segments (%d retransmitted), %d fast retransmits, %d timeouts\n",
		st.SegmentsSent, st.Retransmissions, st.FastRetransmits, st.Timeouts)
	fmt.Printf("switched at %v via the %v strategy\n", mc.SwitchedAt(), mmptcp.ProtoMMPTCP)
}
