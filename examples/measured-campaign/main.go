// measured-campaign runs the full measurement methodology end to end: a
// complete (BS, G, R) sweep on the simulated P100 where every data point
// is obtained the way the paper obtains it — a time-varying power trace
// sampled by a noisy WattsUp-style meter, repeated until the sample mean
// lies in the 95% confidence interval at 2.5% precision. The campaign
// streams through the sink pipeline: one fan-out collects the JSON
// record and writes it once the campaign completes, the other
// materializes a Result for the error analysis. The record is then
// reloaded and the Pareto analysis runs on the measured (not model-true)
// values.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"runtime"

	"energyprop"
	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/store"
)

func main() {
	// Any registered backend works here — swap "p100" for "haswell" or
	// "hetero" and the rest of the program is unchanged.
	dev, err := device.Open("p100")
	if err != nil {
		log.Fatal(err)
	}
	w := device.Workload{N: 10240, Products: 8}

	// The campaign fans configurations out across a bounded worker pool;
	// per-config seeds are derived from the configuration identity, so
	// this measures the identical record a serial run would (workers: 1).
	spec := campaign.DefaultSpec(1)
	spec.Workers = runtime.GOMAXPROCS(0)
	fmt.Printf("measuring every configuration of %d products of %dx%d on %s (%d workers)...\n",
		w.Products, w.N, w.N, dev.Spec().CatalogName, spec.Workers)
	configs, err := dev.Configs(w)
	if err != nil {
		log.Fatal(err)
	}
	// The stream fans out: the RecordSink collects the campaign record
	// and writes its JSON when the campaign completes, the ResultSink
	// keeps the reports for the model-vs-measured comparison below, and
	// a FuncSink reports progress. Delivery is in configuration order,
	// one point at a time, at any worker count, so the bytes are
	// identical to a serial materialize-then-save run and the counter
	// needs no lock.
	var buf bytes.Buffer
	recSink, err := campaign.NewRecordSink(&buf, dev, w, false)
	if err != nil {
		log.Fatal(err)
	}
	resSink := campaign.NewResultSink(dev, w)
	done := 0
	progress := campaign.FuncSink{AcceptFunc: func(campaign.PointOutcome) error {
		if done++; done%25 == 0 || done == len(configs) {
			fmt.Printf("  measured %d/%d configurations\n", done, len(configs))
		}
		return nil
	}}
	if err := campaign.Stream(context.Background(), dev, w, configs, spec, campaign.MultiSink{resSink, recSink, progress}); err != nil {
		log.Fatal(err)
	}
	res := resSink.Result()
	fmt.Printf("campaign: %d configurations, %d total measured runs\n",
		len(res.Points), res.TotalRuns)
	fmt.Printf("persisted %d bytes of JSON (written once the campaign completed)\n", buf.Len())
	loaded, err := store.LoadCampaign(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// Analyze the measured campaign.
	front := energyprop.Front(loaded.Points())
	fmt.Printf("\nmeasured global Pareto front (%d points):\n", len(front))
	tos, err := energyprop.TradeOffs(front)
	if err != nil {
		log.Fatal(err)
	}
	for _, to := range tos {
		fmt.Printf("  %-22s t=%7.3fs E=%8.1fJ (+%.1f%%, -%.1f%%)\n",
			to.Point.Label, to.Point.Time, to.Point.Energy,
			to.PerfDegradationPct, to.EnergySavingPct)
	}

	// How close did the measurements come to the model truth?
	worst := 0.0
	for _, p := range res.Points {
		rel := (p.MeasuredEnergyJ - p.TrueEnergyJ) / p.TrueEnergyJ
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
	}
	fmt.Printf("\nworst measured-vs-true energy error: %.2f%% (precision target 2.5%%)\n", 100*worst)
}
