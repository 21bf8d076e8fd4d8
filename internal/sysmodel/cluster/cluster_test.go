package cluster

import (
	"math/rand"
	"testing"
)

func TestHomogeneousShape(t *testing.T) {
	c := Commodity(8)
	cores, ram := 0, 0.0
	for _, n := range c.Nodes {
		cores += n.Cores
		ram += n.RAMMB
	}
	if len(c.Nodes) != 8 || cores != 64 || ram != 8*16*1024 {
		t.Errorf("commodity cluster wrong: %d nodes, %d cores, %v MB RAM", len(c.Nodes), cores, ram)
	}
	if c.BisectionMBps <= 0 {
		t.Error("bisection bandwidth must be positive")
	}
}

func TestHeterogeneousMix(t *testing.T) {
	c := Heterogeneous(8)
	kinds := map[int]int{}
	for _, n := range c.Nodes {
		kinds[n.Cores]++
	}
	if len(kinds) < 3 {
		t.Errorf("expected ≥3 node classes, got %v", kinds)
	}
	weak := c.MinNode()
	if weak.Cores != WimpyNode().Cores {
		t.Errorf("MinNode = %+v, want wimpy", weak)
	}
}

func TestMultiTenantShare(t *testing.T) {
	c := Commodity(4).MultiTenant(0.4, 0.2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s := c.EffectiveShare(rng)
		if s < 0.1 || s > 1 {
			t.Fatalf("share %v out of bounds", s)
		}
	}
	dedicated := Commodity(4)
	if dedicated.EffectiveShare(rng) != 1 {
		t.Error("dedicated cluster should have full share")
	}
}

func TestDollarCost(t *testing.T) {
	c := Commodity(10)
	if got := c.DollarCost(3600); got != 10*0.40 {
		t.Errorf("cost = %v", got)
	}
}

func TestSpecsKeys(t *testing.T) {
	s := Commodity(3).Specs()
	for _, k := range []string{"nodes", "cores", "ram_mb", "disk_mbps", "net_mbps", "clock_ghz"} {
		if s[k] <= 0 {
			t.Errorf("spec %q missing or zero", k)
		}
	}
}

func TestRandMBps(t *testing.T) {
	n := CommodityNode()
	if n.RandMBps() != n.DiskMBps/RandIOFactor {
		t.Error("random bandwidth derivation wrong")
	}
}
