package main

import (
	"encoding/json"
	"os"
	"testing"

	"bcl/internal/obs"
	"bcl/internal/sim"
)

// TestSameSeedSameDigest runs each workload twice from fresh inputs
// and checks that both reps print the same determinism digest.
func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		var digests [2]uint64
		for i := range digests {
			rc := newRep(nil)
			r, err := w.run(w.inputs(3), rc)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			rc.finish(r)
			if r.failed != 0 {
				t.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
			}
			digests[i] = r.digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digests %016x and %016x differ for one seed", w.name, digests[0], digests[1])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bcl/internal/sim.(*Proc).park":                   "sim",
		"bcl/internal/sim.(*Queue[...]).Recv":             "sim",
		"bcl/internal/fabric/myrinet.(*Net).route":        "fabric",
		"bcl/internal/nic.(*NIC).txLoop.func2":            "nic",
		"bcl/internal/obs/reqtrace.(*Recorder).Mark":      "obs",
		"bcl/internal/trace.(*Tracer).DoFlow":             "obs",
		"bcl/internal/oskernel.(*Kernel).Trap":            "oskernel",
		"bcl.(*Machine).Start.func1":                      "bcl",
		"bcl/internal/cluster.New":                        "other",
		"bcl/internal/workloads/openloop.(*Poisson).Next": "other",
		"main.runPingpong.func2":                          "bench",
	} {
		if got, ok := layerOf(fn); !ok || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.chanrecv1", "sync.(*Mutex).Lock", "bytes.Equal"} {
		if got, ok := layerOf(fn); ok {
			t.Errorf("layerOf(%q) = %q; want no repository layer", fn, got)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the result line carries
// exactly the metrics BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	r := &repResult{ops: 1, attempted: 1, window: sim.Second, events: 1, counters: &obs.Snapshot{}}
	tr := &tracing{spans: &spanLog{agg: map[string]*spanAgg{}}, reps: 1}
	for _, c := range []struct {
		what string
		want []decl
		got  map[string]metric
	}{
		{"end_to_end", spec.EndToEnd, endToEnd([]*repResult{r})},
		{"per_layer", spec.PerLayer, perLayer(r, []*repResult{r}, []*repResult{r}, tr)},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
		}
		for _, d := range c.want {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s in %q, reported %+v (present %v)", c.what, d.Name, d.Unit, m, ok)
			}
		}
	}
}
