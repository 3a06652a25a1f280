// Cwndtrace plots (as CSV on stdout) the congestion-window evolution of
// one MMPTCP connection across its two phases: the single packet-scatter
// window ramps up, freezes at the 100 KB data-volume switch and drains,
// while eight MPTCP subflow windows take over. Feed the output to any
// plotting tool:
//
//	go run ./examples/cwndtrace > trace.csv
//	# columns: time_ms, ps_cwnd_pkts, mptcp_cwnd_pkts, ps_srtt_ms
package main

import (
	"fmt"
	"log"
	"os"

	mmptcp "repro"
)

func main() {
	eng := mmptcp.NewEngine()
	cfg := mmptcp.Config{
		Protocol: mmptcp.ProtoMMPTCP,
		Topology: mmptcp.TopoFatTree,
		K:        4,
	}
	net, err := mmptcp.NewNetwork(eng, cfg)
	if err != nil {
		log.Fatal(err)
	}
	rng := mmptcp.NewRNG(9)

	// A background long flow congests part of the fabric so the traced
	// flow shows real dynamics.
	bg, err := mmptcp.Dial(net, cfg, mmptcp.DialConfig{
		FlowID: 99, Src: 1, Dst: len(net.Hosts) - 2, Size: -1, RNG: rng.Split(),
	})
	if err != nil {
		log.Fatal(err)
	}
	bg.Start()

	conn, err := mmptcp.Dial(net, cfg, mmptcp.DialConfig{
		FlowID: 1, Src: 0, Dst: len(net.Hosts) - 1, Size: 600_000, RNG: rng.Split(),
	})
	if err != nil {
		log.Fatal(err)
	}
	mc, _ := mmptcp.MMPTCPConn(conn)

	const mss = 1400.0
	s := mmptcp.NewSampler(eng, 500*mmptcp.Microsecond)
	s.Add("ps_cwnd_pkts", func() float64 {
		if mc.PacketScatter().Done() {
			return 0
		}
		return mc.PacketScatter().Cwnd / mss
	})
	s.Add("mptcp_cwnd_pkts", func() float64 {
		mp := mc.MPTCP()
		if mp == nil {
			return 0
		}
		var total float64
		for _, sub := range mp.Subflows() {
			if !sub.Done() {
				total += sub.Cwnd
			}
		}
		return total / mss
	})
	s.Add("ps_srtt_ms", func() float64 {
		return mc.PacketScatter().SRTT().Milliseconds()
	})
	s.Start()

	conn.Receiver().OnComplete = func() {
		s.Stop()
		eng.Stop()
	}
	conn.Start()
	eng.RunUntil(30 * mmptcp.Second)

	if err := s.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "switched at %v, completed at %v\n", mc.SwitchedAt(), eng.Now())
}
