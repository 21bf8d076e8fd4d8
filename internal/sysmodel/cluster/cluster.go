// Package cluster models the hardware a simulated system runs on: nodes with
// cores, clock speed, RAM, disk and network bandwidth; homogeneous or
// heterogeneous fleets; optional multi-tenant background load; and a price
// model for the cloud-cost experiments.
package cluster

import "math/rand"

// Node describes one machine.
type Node struct {
	Cores    int
	ClockGHz float64
	RAMMB    float64
	// DiskMBps is sequential disk bandwidth; random-access bandwidth is
	// derived via RandIOFactor.
	DiskMBps float64
	NetMBps  float64
}

// RandIOFactor is the sequential/random bandwidth ratio of the modeled
// storage (HDD-era deployments the surveyed work targets).
const RandIOFactor = 10.0

// RandMBps returns the node's random-access disk bandwidth.
func (n Node) RandMBps() float64 { return n.DiskMBps / RandIOFactor }

// Cluster is a set of nodes plus shared-fabric properties.
type Cluster struct {
	Nodes []Node
	// BisectionMBps bounds aggregate cross-node transfer (shuffle).
	BisectionMBps float64
	// TenantLoad is the mean fraction of every resource consumed by other
	// tenants (0 = dedicated cluster).
	TenantLoad float64
	// TenantJitter is the amplitude of random per-run variation of the
	// tenant load, for the cloud/multi-tenant experiments.
	TenantJitter float64
	// PricePerNodeHour prices a node-hour in dollars for cost-aware tuning.
	PricePerNodeHour float64
}

// CommodityNode is the default worker machine: 8 cores at 2.4 GHz, 16 GB
// RAM, 200 MB/s sequential disk, 120 MB/s NIC.
func CommodityNode() Node {
	return Node{Cores: 8, ClockGHz: 2.4, RAMMB: 16 * 1024, DiskMBps: 200, NetMBps: 120}
}

// BeefyNode is a high-memory, fast-disk machine for heterogeneous fleets.
func BeefyNode() Node {
	return Node{Cores: 16, ClockGHz: 3.0, RAMMB: 64 * 1024, DiskMBps: 500, NetMBps: 250}
}

// WimpyNode is a small, slow-disk machine for heterogeneous fleets.
func WimpyNode() Node {
	return Node{Cores: 4, ClockGHz: 1.8, RAMMB: 8 * 1024, DiskMBps: 90, NetMBps: 60}
}

// Homogeneous returns n identical nodes of the given spec.
func Homogeneous(n int, spec Node) *Cluster {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = spec
	}
	return &Cluster{
		Nodes:            nodes,
		BisectionMBps:    float64(n) * spec.NetMBps * 0.6,
		PricePerNodeHour: 0.40,
	}
}

// Commodity returns n commodity nodes.
func Commodity(n int) *Cluster { return Homogeneous(n, CommodityNode()) }

// Heterogeneous returns a mixed fleet: half commodity, a quarter beefy, a
// quarter wimpy (rounded), modeling the resource heterogeneity the paper
// lists as an open challenge.
func Heterogeneous(n int) *Cluster {
	nodes := make([]Node, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%4 == 1:
			nodes = append(nodes, BeefyNode())
		case i%4 == 3:
			nodes = append(nodes, WimpyNode())
		default:
			nodes = append(nodes, CommodityNode())
		}
	}
	var net float64
	for _, nd := range nodes {
		net += nd.NetMBps
	}
	return &Cluster{Nodes: nodes, BisectionMBps: net * 0.6, PricePerNodeHour: 0.40}
}

// MultiTenant returns a copy of c with background tenant load.
func (c *Cluster) MultiTenant(load, jitter float64) *Cluster {
	out := *c
	out.TenantLoad = load
	out.TenantJitter = jitter
	return &out
}

// EffectiveShare draws the fraction of resources available to our job this
// run, given tenant load and jitter.
func (c *Cluster) EffectiveShare(rng *rand.Rand) float64 {
	load := c.TenantLoad
	if c.TenantJitter > 0 && rng != nil {
		load += (rng.Float64()*2 - 1) * c.TenantJitter
	}
	if load < 0 {
		load = 0
	}
	if load > 0.9 {
		load = 0.9
	}
	return 1 - load
}

// MinNode returns the weakest node (by core×clock product); wave-based
// schedulers are often limited by it.
func (c *Cluster) MinNode() Node {
	best := c.Nodes[0]
	for _, n := range c.Nodes[1:] {
		if float64(n.Cores)*n.ClockGHz < float64(best.Cores)*best.ClockGHz {
			best = n
		}
	}
	return best
}

// Specs exports conventional spec names for rule-based tuners.
func (c *Cluster) Specs() map[string]float64 {
	n0 := c.Nodes[0]
	return map[string]float64{
		"nodes":     float64(len(c.Nodes)),
		"cores":     float64(n0.Cores),
		"clock_ghz": n0.ClockGHz,
		"ram_mb":    n0.RAMMB,
		"disk_mbps": n0.DiskMBps,
		"net_mbps":  n0.NetMBps,
	}
}

// DollarCost prices a run of the given duration on this cluster.
func (c *Cluster) DollarCost(seconds float64) float64 {
	return float64(len(c.Nodes)) * c.PricePerNodeHour * seconds / 3600
}
