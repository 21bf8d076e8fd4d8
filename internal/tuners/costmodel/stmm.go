// Package costmodel implements the survey's second category: white-box
// analytical performance models built from understanding of system
// internals, evaluated without running the system.
//
//   - STMM (Storm et al., VLDB 2006): cost–benefit balancing of memory
//     consumers for the DBMS — shift memory toward the consumer with the
//     highest marginal benefit until benefits equalize.
//   - Starfish-lite (Herodotou & Babu, PVLDB 2011): an analytical what-if
//     model of MapReduce phase times driven by a job profile, searched with
//     recursive random search to recommend a configuration.
//   - Ernest (Venkataraman et al., NSDI 2016): a scale-out model for Spark
//     fit by non-negative least squares on a few cheap runs, predicting the
//     best executor count.
//
// Cost models are extremely cheap — zero or near-zero real runs — but
// inherit every simplifying assumption they are built on; the Table-1
// experiment shows where those assumptions bite (heterogeneity, contention).
package costmodel

import (
	"math"

	"repro/internal/tune"
)

// STMM balances DBMS memory consumers analytically. The model: buffer-pool
// benefit follows a concave hit-ratio curve against the workload's data
// size; work_mem benefit is a spill-avoidance step against the workload's
// sort/hash sizes; both are priced in saved I/O seconds per MB. Memory moves
// from the consumer with the lower marginal benefit to the higher until
// marginal benefits equalize — DB2's self-tuning memory manager in
// miniature. It needs specs and workload features but zero runs; with
// budget, one verification run is spent.
type STMM struct{}

const (
	// stmmStep is the reallocation granularity in MB.
	stmmStep = 64
	// stmmIterations bounds the balancing loop.
	stmmIterations = 200
)

// NewSTMM returns an STMM tuner.
func NewSTMM() *STMM { return &STMM{} }

// Name implements tune.Tuner.
func (t *STMM) Name() string { return "costmodel/stmm" }

// recommend performs the analytical memory balancing.
func (t *STMM) recommend(target tune.Target) tune.Config {
	space := target.Space()
	specs := map[string]float64{}
	if sp, ok := target.(tune.SpecProvider); ok {
		specs = sp.Specs()
	}
	features := map[string]float64{}
	if d, ok := target.(tune.Describer); ok {
		features = d.WorkloadFeatures()
	}
	ram := specs["ram_mb"]
	if ram == 0 {
		ram = 4096
	}
	dataMB := features["data_gb"] * 1024
	if dataMB == 0 {
		dataMB = ram * 4
	}
	clients := math.Max(features["clients"], 1)
	sortShare := features["sort_frac"] + features["join_frac"] + 0.5*features["scan_frac"]

	// Memory pool to distribute: 80% of RAM minus fixed overheads.
	pool := 0.8*ram - 256
	buffer := pool * 0.5
	workTotal := pool * 0.5 // total across concurrent consumers
	conc := math.Min(clients, specs["cores"])
	if conc < 1 {
		conc = 1
	}

	// Marginal benefit of one more MB of buffer pool: derivative of the
	// concave hit curve times the read volume it saves.
	bufBenefit := func(mb float64) float64 {
		frac := math.Min(1, mb/dataMB)
		// d/dmb of frac^0.7 ≈ 0.7·frac^{-0.3}/dataMB; scaled by read volume.
		return 0.7 * math.Pow(frac+1e-9, -0.3) / dataMB * (1 - features["update_frac"])
	}
	// Marginal benefit of one more MB of work memory: spill avoidance,
	// strongest while typical operator inputs exceed per-consumer share.
	typicalOpMB := math.Max(dataMB*0.1, 16)
	workBenefit := func(total float64) float64 {
		per := total / conc
		if per >= typicalOpMB {
			return 0.05 / dataMB * sortShare // residual benefit
		}
		return 2.0 / typicalOpMB * sortShare
	}

	for i := 0; i < stmmIterations; i++ {
		bb, wb := bufBenefit(buffer), workBenefit(workTotal)
		switch {
		case bb > wb*1.05 && workTotal > stmmStep:
			buffer += stmmStep
			workTotal -= stmmStep
		case wb > bb*1.05 && buffer > stmmStep:
			buffer -= stmmStep
			workTotal += stmmStep
		default:
			i = stmmIterations // balanced
		}
	}

	rec := space.Default()
	if _, ok := space.Param("buffer_pool_mb"); ok {
		rec = rec.WithNative("buffer_pool_mb", buffer)
	}
	if _, ok := space.Param("work_mem_mb"); ok {
		rec = rec.WithNative("work_mem_mb", math.Max(workTotal/conc/2, 1))
	}
	if _, ok := space.Param("wal_buffer_mb"); ok && features["update_frac"] > 0.05 {
		rec = rec.WithNative("wal_buffer_mb", 32)
	}
	return rec
}
