package main

import (
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload briefly on a small data
// set, untraced and traced, so a change that breaks a workload, its
// checks or one of its metrics fails here first.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start the full stack")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{
				w: w, seed: 3, seconds: 0.6, trace: traced,
				records: 2000, setups: 1, rateScale: 0.05, warmup: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d\n%v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.report)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics()
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.name, traced, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
