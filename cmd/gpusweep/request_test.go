package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"testing"

	"energyprop/internal/service"
)

// TestRequestMatchesSweepJSON: the campaign settings given as gpusweep
// flags parse to the same launch.Request as the equivalent /sweep body,
// apart from the model-true profile only gpusweep asks for.
func TestRequestMatchesSweepJSON(t *testing.T) {
	fs := flag.NewFlagSet("gpusweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	request := requestFlags(fs)
	if err := fs.Parse([]string{
		"-device", "haswell", "-app", "stencil", "-n", "96", "-products", "2", "-workers", "3",
		"-retries", "2", "-faults", "seed=7,transient=0.2,drop=0.1,latency=3ms",
		"-executor", "fleet", "-nodes", "5", "-shardsize", "4",
		"-nodefaults", "seed=9,preempt=0.2,flaky=0.1,slow=0.3,slowticks=2",
	}); err != nil {
		t.Fatal(err)
	}
	got, err := request()
	if err != nil {
		t.Fatal(err)
	}
	var body service.SweepRequest
	dec := json.NewDecoder(bytes.NewReader([]byte(`{
		"device": "haswell", "workload": {"app": "stencil", "N": 96, "Products": 2}, "workers": 3,
		"retries": 2, "faults": {"seed": 7, "transient": 0.2, "drop": 0.1, "latency_ms": 3},
		"executor": "fleet", "nodes": 5, "shard_size": 4,
		"node_faults": {"seed": 9, "preempt": 0.2, "flaky": 0.1, "slow": 0.3, "slow_ticks": 2}}`)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	want, err := body.Request()
	if err != nil {
		t.Fatal(err)
	}
	want.Analytic = true
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags parse to\n%+v\nthe /sweep body to\n%+v", got, want)
	}
}
