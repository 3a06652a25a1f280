package topology

import "fmt"

// Partition assigns every switch of the network to one of `shards`
// groups and returns the assignment as a slice parallel to n.Switches.
// Builders that know their structure install a partitionHint — the
// FatTree groups whole pods so the only cut links are the thin
// agg<->core tier — and everything else falls back to a contiguous
// split in builder order, which at least keeps each switch's pod/stage
// neighbours (adjacent by construction in every builder here) on the
// same shard.
//
// The assignment is deterministic: same network shape and shard count,
// same partition. That determinism is part of the sharded engine's
// reproducibility contract.
func Partition(n *Network, shards int) ([]int, error) {
	ns := len(n.Switches)
	if shards < 1 {
		return nil, fmt.Errorf("topology: shard count %d < 1", shards)
	}
	if shards > ns {
		return nil, fmt.Errorf("topology: %d shards exceed the %d switches of %s", shards, ns, n.Kind)
	}
	var assign []int
	if n.partitionHint != nil {
		assign = n.partitionHint(shards)
	}
	if assign == nil {
		assign = make([]int, ns)
		for i := range assign {
			assign[i] = i * shards / ns
		}
	}
	if len(assign) != ns {
		return nil, fmt.Errorf("topology: partition hint returned %d assignments for %d switches", len(assign), ns)
	}
	seen := make([]bool, shards)
	for i, s := range assign {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("topology: switch %d assigned to shard %d of %d", i, s, shards)
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("topology: shard %d of %d is empty", s, shards)
		}
	}
	return assign, nil
}
