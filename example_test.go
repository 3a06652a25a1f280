package mmptcp_test

import (
	"fmt"

	mmptcp "repro"
)

// ExampleRun runs a miniature version of the paper's headline workload
// and reports how many short flows completed.
func ExampleRun() {
	cfg := mmptcp.SmallConfig(mmptcp.ProtoMMPTCP, 25)
	cfg.Seed = 1
	res, err := mmptcp.Run(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("completed %d/%d short flows\n", res.ShortSummary.Count, res.Spawned)
	fmt.Printf("long flows: %d\n", len(res.LongFlows))
	// Output:
	// completed 25/25 short flows
	// long flows: 21
}

// ExampleDial drives a single MMPTCP connection over a FatTree.
func ExampleDial() {
	eng := mmptcp.NewEngine()
	cfg := mmptcp.Config{Protocol: mmptcp.ProtoMMPTCP, K: 4}
	net, err := mmptcp.NewNetwork(eng, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	conn, err := mmptcp.Dial(net, cfg, mmptcp.DialConfig{
		FlowID: 1, Src: 0, Dst: 63, Size: 70_000, RNG: mmptcp.NewRNG(42),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	conn.Start()
	eng.Run()
	fmt.Printf("delivered %d bytes, complete=%t\n",
		conn.Receiver().Delivered(), conn.Receiver().Complete())
	mc, _ := mmptcp.MMPTCPConn(conn)
	fmt.Printf("stayed in packet scatter: %t\n", !mc.Switched())
	// Output:
	// delivered 70000 bytes, complete=true
	// stayed in packet scatter: true
}

// ExamplePathCount shows the topology oracle MMPTCP uses for its
// packet-scatter duplicate-ACK threshold.
func ExamplePathCount() {
	eng := mmptcp.NewEngine()
	net, _ := mmptcp.NewNetwork(eng, mmptcp.Config{Protocol: mmptcp.ProtoTCP, K: 4})
	fmt.Println(mmptcp.PathCount(net, 0, 1))  // same edge switch
	fmt.Println(mmptcp.PathCount(net, 0, 63)) // different pod
	// Output:
	// 1
	// 4
}
