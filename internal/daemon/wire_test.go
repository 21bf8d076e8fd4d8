package daemon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestEventWireGolden pins the SSE wire itself. Each fixed session is streamed
// through the real GET /sessions/{id}/events handler and the whole response
// body is hashed against a constant. The replay, resume and parallel tests
// compare two runs of the same encoder, so only these constants notice a
// change in the bytes the encoder writes.
func TestEventWireGolden(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		spec  string
		query string   // appended to the events URL
		kinds []string // event names the stream must carry, or the golden is vacuous
		want  string   // hex SHA-256 of the response body
	}{
		{
			name: "random",
			spec: `{"system": "dbms", "workload": "tpch", "tuner": "random",
				"seed": 42, "budget": {"trials": 8}, "target": {"scale_gb": 2}}`,
			kinds: []string{"trial_started", "trial_done", "incumbent_improved", "session_done"},
			want:  "64bafec9f889e18935d0f67fafc119a1eb33a018e6681c427b71628520029eb7",
		},
		{
			name: "hyperband",
			spec: `{"system": "dbms", "workload": "tpch", "tuner": "random",
				"seed": 42, "budget": {"trials": 24}, "target": {"scale_gb": 2},
				"fidelity": {"strategy": "hyperband"}}`,
			kinds: []string{"trial_pruned"},
			want:  "e3cae1070f568aacf79403d27000ad9d1cc1d335f312af69970f55326a45b202",
		},
		// The scenario specs of TestScenarioEventStreamsDeterministicAcrossParallel.
		{
			name: "pareto",
			spec: `{"system": "dbms", "workload": "tpch", "tuner": "ituned",
				"seed": 11, "budget": {"trials": 20}, "target": {"scale_gb": 2}, "pareto": true}`,
			kinds: []string{"pareto_incumbent"},
			want:  "9fffea73c08ce6702d54308fc26f3980dda6176f7d4bd3d090e429ee18d0efa4",
		},
		{
			name: "guardrail",
			spec: `{"system": "dbms", "workload": "tpch", "tuner": "ituned",
				"seed": 11, "budget": {"trials": 16}, "target": {"scale_gb": 2}, "guardrail": 100}`,
			kinds: []string{"guardrail_violation"},
			want:  "3a4350d69412feda033b954be9adf0024c9a7442b579bd9e4012a60eddaaea3a",
		},
		{
			name: "drift",
			spec: `{"system": "dbms", "workload": "oltp-olap-shift", "tuner": "ituned",
				"seed": 11, "budget": {"trials": 24}, "target": {"scale_gb": 2}, "drift_detect": true}`,
			kinds: []string{"drift_detected"},
			want:  "34b99b637496de7cbed91bb7862e53a48b9ce59264da25c4f761f4feab76e0e4",
		},
		{
			// Event 2 is evicted from a 4-event buffer: the stream opens with
			// the compacted summary, then the retained tail.
			name: "checkpoint",
			opts: Options{EventBuffer: 4},
			spec: `{"system": "dbms", "workload": "tpch", "tuner": "random",
				"seed": 3, "budget": {"trials": 6}}`,
			query: "?after=1",
			kinds: []string{"stream_checkpoint", "session_done"},
			want:  "47af9df376b2f1aed9c45da3e11895fd93e428d5081d7c9be849dff4d3572a6c",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.opts
			o.Workers = 1
			ts, _ := newTestServerWith(t, o)
			id, code, body := postSpec(t, ts, c.spec)
			if code != http.StatusCreated {
				t.Fatalf("POST = %d %v", code, body)
			}
			waitDone(t, ts, id)
			checkWire(t, wireBody(t, ts, id, c.query), c.kinds, c.want)
		})
	}

	// A session stopped while still queued behind the only worker: its whole
	// stream is one session_done frame carrying the error.
	t.Run("stopped_pending", func(t *testing.T) {
		ts, _ := newTestServerWith(t, Options{Workers: 1})
		busy, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 1))
		if code != http.StatusCreated {
			t.Fatalf("POST = %d", code)
		}
		queued, code, _ := postSpec(t, ts, `{"system": "dbms", "workload": "tpch", "tuner": "random",
			"seed": 2, "budget": {"trials": 3}}`)
		if code != http.StatusCreated {
			t.Fatalf("POST = %d", code)
		}
		del(t, ts, queued)
		waitDone(t, ts, queued)
		wire := wireBody(t, ts, queued, "")
		if n := bytes.Count(wire, []byte("\n\n")); n != 1 {
			t.Errorf("stopped pending session streamed %d frames, want 1:\n%s", n, wire)
		}
		checkWire(t, wire, []string{"session_done"}, "06ea2942e00c433b4ac9c74fa74e6a2dc8680c7b587715e8df90f51bbd20e1f8")
		del(t, ts, busy)
	})
}

// wireBody returns the raw body of a finished session's event stream.
func wireBody(t *testing.T, ts *httptest.Server, id, query string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	wire, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// checkWire asserts the stream carries every kind and hashes to want.
func checkWire(t *testing.T, wire []byte, kinds []string, want string) {
	t.Helper()
	for _, k := range kinds {
		if !bytes.Contains(wire, []byte("\nevent: "+k+"\n")) {
			t.Errorf("stream carries no %s frame", k)
		}
	}
	sum := sha256.Sum256(wire)
	if got := hex.EncodeToString(sum[:]); got != want {
		head := wire
		if len(head) > 400 {
			head = head[:400]
		}
		t.Errorf("wire SHA-256 = %s, want %s (%d bytes); stream begins:\n%s", got, want, len(wire), head)
	}
}

func del(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}
