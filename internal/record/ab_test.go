package record

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/rpc"
	"repro/internal/telemetry"
)

func TestReplayABValidation(t *testing.T) {
	if _, err := ReplayAB(context.Background(), &Trace{}, ABConfig{}); err == nil {
		t.Error("empty trace accepted")
	}
}

// Both arms of the paired replay issue every recorded event — the same
// arrivals, payloads, and timestamps — and neither arm errors; the only
// difference between them is the client stack.
func TestReplayABPairedArms(t *testing.T) {
	tr, err := Synthesize("retry-storm", 99, 240)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayAB(context.Background(), tr, ABConfig{Dilate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != len(tr.Events) {
		t.Errorf("Events = %d, want %d", res.Events, len(tr.Events))
	}
	for _, arm := range []struct {
		name string
		a    ABArm
	}{{"unbatched", res.Unbatched}, {"batched", res.Batched}} {
		if arm.a.Stats.Issued != len(tr.Events) {
			t.Errorf("%s arm issued %d of %d events", arm.name, arm.a.Stats.Issued, len(tr.Events))
		}
		if arm.a.Stats.Errors != 0 {
			t.Errorf("%s arm saw %d errors", arm.name, arm.a.Stats.Errors)
		}
		if got := arm.a.Latency.Count; got != uint64(len(tr.Events)) {
			t.Errorf("%s arm recorded %d latencies, want %d", arm.name, got, len(tr.Events))
		}
		if arm.a.Stats.Duration <= 0 {
			t.Errorf("%s arm reports non-positive duration", arm.name)
		}
	}
}

// ReplayArm records into the caller's histogram when given one, and a
// failing dial surfaces before any event is issued.
func TestReplayArm(t *testing.T) {
	tr, err := Synthesize("steady", 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		return rpc.Message{Method: req.Method}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	lat := telemetry.NewHistogram("arm_lat", "")
	arm, err := ReplayArm(context.Background(), tr, srv, DialClient, RPCReplayConfig{Dilate: 0.05, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if arm.Stats.Issued != len(tr.Events) || arm.Stats.Errors != 0 {
		t.Fatalf("stats = %+v, want %d issued without errors", arm.Stats, len(tr.Events))
	}
	if arm.Latency.Count != uint64(len(tr.Events)) || lat.Snapshot().Count != arm.Latency.Count {
		t.Fatalf("arm latency count %d, caller histogram %d, want %d",
			arm.Latency.Count, lat.Snapshot().Count, len(tr.Events))
	}

	dialErr := errors.New("dial refused")
	failDial := func(net.Conn) (CallFunc, func() error, error) { return nil, nil, dialErr }
	if _, err := ReplayArm(context.Background(), tr, srv, failDial, RPCReplayConfig{}); !errors.Is(err, dialErr) {
		t.Fatalf("err = %v, want the dial error", err)
	}
}
