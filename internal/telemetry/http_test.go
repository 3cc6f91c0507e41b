package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	rm := NewRunMetrics(reg, []string{"m1/cpu", "m1/gpu"})
	rm.Consume(Event{Kind: EvTaskSubmit, Time: 0, PU: 1, Units: 64})
	rm.Consume(Event{Kind: EvTaskComplete, Time: 0, TransferStart: 0, TransferEnd: 0.1,
		ExecStart: 0.1, End: 0.6, PU: 1, Units: 64})
	rm.Consume(Event{Kind: EvSolve, Time: 1, Name: "waterfill", Value: 17, Aux: 2e-9})
	rm.Consume(Event{Kind: EvDistribution, Time: 1, Name: "a", Shares: []float64{0.25, 0.75}})
	rm.Consume(Event{Kind: EvDistribution, Time: 2, Name: "b", Shares: []float64{0.5, 0.5}})

	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		`plbhec_tasks_completed_total{pu="m1/gpu"} 1`,
		"plbhec_ipm_iterations 17",
		`plbhec_pu_busy_seconds{pu="m1/gpu"} 0.5`,
		"plbhec_distribution_l1_delta 0.5",
		"plbhec_task_exec_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestListenAndServeEphemeral(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	srv, addr, errc, err := ListenAndServe("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("served metrics missing counter:\n%s", body)
	}

	// A graceful shutdown reports a nil outcome and closes the channel.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("Serve outcome after Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve outcome never reported after Shutdown")
	}
	if _, ok := <-errc; ok {
		t.Error("outcome channel not closed after reporting")
	}
}

// The background Serve error must surface instead of leaving a silently
// dead endpoint: killing the listener out from under the server delivers a
// non-nil outcome.
func TestListenAndServeSurfacesServeError(t *testing.T) {
	srv, addr, errc, err := ListenAndServe("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Close the server abruptly (not Shutdown): Serve returns ErrServerClosed
	// which maps to nil; then verify the channel delivered exactly once.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatalf("Serve outcome never reported after Close (addr %s)", addr)
	}
}

// TestAttributionEndpoint covers /debug/attribution end to end: 404 before
// anything is published, JSON after, and — under -race — publishes racing
// concurrent GETs and the final Shutdown.
func TestAttributionEndpoint(t *testing.T) {
	att := &AttributionStore{}
	srv, addr, errc, err := ListenAndServe("127.0.0.1:0", NewRegistry(), att)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String() + "/debug/attribution"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-publish status = %d, want 404", resp.StatusCode)
	}

	if err := att.Publish(map[string]float64{"compute": 0.75, "idle": 0.25}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-publish status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	var doc map[string]float64
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON %q: %v", body, err)
	}
	if doc["compute"] != 0.75 {
		t.Errorf("doc = %v", doc)
	}

	// Race publishes against reads and the shutdown.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					_ = att.Publish(map[string]int{"round": i})
				} else if resp, err := http.Get(url); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := <-errc; err != nil {
		t.Errorf("Serve outcome = %v, want nil", err)
	}
}

// A nil store (and an empty non-nil one) must serve 404, not panic.
func TestAttributionEndpointNilStore(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/attribution")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("nil-store status = %d, want 404", resp.StatusCode)
	}
}
