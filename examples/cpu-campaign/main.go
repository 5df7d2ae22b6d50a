// cpu-campaign runs a measured campaign on the simulated Haswell
// multicore through the unified device pipeline: the CPU adapter comes
// out of the registry, its threadgroup decompositions (partition, p, t)
// are enumerated exactly like GPU (BS, G, R) points, and every
// configuration is measured with the same WattsUp-style statistical loop
// the GPU campaigns use. The Pareto analysis then shows the paper's CPU
// result: the fastest decomposition and the lowest-energy one differ, so
// dynamic energy is not proportional to performance on the CPU either.
package main

import (
	"context"
	"fmt"
	"log"

	"energyprop"
	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/parindex"
)

func main() {
	dev, err := device.Open("haswell")
	if err != nil {
		log.Fatal(err)
	}
	w := device.Workload{App: device.AppDense, N: 96, Products: 2}

	fmt.Printf("measured campaign on %s (kind %s)\n", dev.Spec().CatalogName, dev.Kind())
	spec := campaign.DefaultSpec(1)
	configs, err := dev.Configs(w.Normalized())
	if err != nil {
		log.Fatal(err)
	}
	// The campaign streams into two sinks at once: a materialized Result
	// for the analysis below, and an incremental Pareto index that can
	// answer constraint queries the moment the stream flushes.
	index := parindex.NewIndex()
	idxSink := campaign.NewIndexSink(index, "haswell", w)
	resSink := campaign.NewResultSink(dev, w)
	if err := campaign.Stream(context.Background(), dev, w, configs, spec, campaign.MultiSink{resSink, idxSink}); err != nil {
		log.Fatal(err)
	}
	res := resSink.Result()
	fmt.Printf("campaign: %d decompositions, %d total measured runs for %s\n\n",
		len(res.Points), res.TotalRuns, w)

	// The measured bi-objective space, analyzed like any other backend's.
	pts := make([]energyprop.Point, len(res.Points))
	fastest, cheapest := 0, 0
	for i, p := range res.Points {
		pts[i] = energyprop.Point{Label: p.Config.String(), Time: p.TrueSeconds, Energy: p.MeasuredEnergyJ}
		if p.TrueSeconds < res.Points[fastest].TrueSeconds {
			fastest = i
		}
		if p.MeasuredEnergyJ < res.Points[cheapest].MeasuredEnergyJ {
			cheapest = i
		}
	}
	front := energyprop.Front(pts)
	fmt.Printf("measured global Pareto front (%d of %d points):\n", len(front), len(pts))
	tos, err := energyprop.TradeOffs(front)
	if err != nil {
		log.Fatal(err)
	}
	for _, to := range tos {
		fmt.Printf("  %-24s t=%7.4fs E=%7.1fJ (+%.1f%%, -%.1f%%)\n",
			to.Point.Label, to.Point.Time, to.Point.Energy,
			to.PerfDegradationPct, to.EnergySavingPct)
	}

	fp, cp := res.Points[fastest], res.Points[cheapest]
	fmt.Printf("\nfastest decomposition:      %-24s t=%.4fs E=%.1fJ\n",
		fp.Config.String(), fp.TrueSeconds, fp.MeasuredEnergyJ)
	fmt.Printf("lowest-energy decomposition: %-24s t=%.4fs E=%.1fJ\n",
		cp.Config.String(), cp.TrueSeconds, cp.MeasuredEnergyJ)
	if fastest != cheapest {
		fmt.Println("they differ: performance and dynamic energy are separate objectives on the CPU too")
	}

	// The index answers the operator's question directly — fastest
	// decomposition within a dynamic-energy budget — with one binary
	// search over the front, the same query path the measurement
	// service's /optimize endpoint uses.
	budget := 0.9 * fp.MeasuredEnergyJ
	if e, _, ok := index.Best(idxSink.Key, parindex.Query{MaxEnergy: budget}); ok {
		fmt.Printf("fastest within a %.1fJ budget: %-24s t=%.4fs E=%.1fJ (from the incremental index)\n",
			budget, e.Label, e.Time, e.Energy)
	}
}
