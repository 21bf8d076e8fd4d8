package linalg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro"
	"repro/internal/mathx/linalg"
)

// sessionStream runs spec to completion and returns its event stream, one
// JSON document per line.
func sessionStream(t *testing.T, spec repro.Spec) []byte {
	t.Helper()
	run, err := repro.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for ev := range run.Events() {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if _, err := run.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Nothing above linalg may be able to tell which path it ran on: a whole
// model-based session — GP fits past the frozen-hyperparameter threshold for
// iTuned, the warm-started mapped GP for OtterTune — emits the same bytes
// with the kernels on and off, and so does a random search on Spark, whose
// every trial draws its tasks' stragglers through ExpInto.
func TestSessionStreamsIdenticalOnBothKernels(t *testing.T) {
	specs := []repro.Spec{
		{System: "dbms", Workload: "tpch", Tuner: "ituned", Seed: 3, Budget: repro.Budget{Trials: 80}},
		{System: "spark", Workload: "pagerank", Tuner: "ottertune", Seed: 3, Budget: repro.Budget{Trials: 40}},
		{System: "spark", Workload: "pagerank", Tuner: "random", Seed: 5, Budget: repro.Budget{Trials: 60}},
	}
	for _, spec := range specs {
		t.Run(spec.Tuner, func(t *testing.T) {
			linalg.ForceKernel(t, false)
			want := sessionStream(t, spec)
			linalg.ForceKernel(t, true)
			got := sessionStream(t, spec)
			if bytes.Equal(want, got) {
				return
			}
			wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
			for i := 0; i < len(wl) && i < len(gl); i++ {
				if !bytes.Equal(wl[i], gl[i]) {
					t.Fatalf("event %d differs:\n  Go loops: %s\n  kernels:  %s", i+1, wl[i], gl[i])
				}
			}
			t.Fatalf("%d events with the kernels on, %d with them off", len(gl)-1, len(wl)-1)
		})
	}
}

func TestSessionStreamsIdenticalOnBothKernelsRace3(t *testing.T) {
	TestSessionStreamsIdenticalOnBothKernels(t)
}
