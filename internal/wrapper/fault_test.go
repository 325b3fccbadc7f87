package wrapper_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/dataspace/automed/internal/wrapper"
	"github.com/dataspace/automed/internal/wrapper/wrappertest"
)

func newBenignFault(t *testing.T) *wrapper.Fault {
	t.Helper()
	inner, err := wrapper.NewRelational("S", conformanceDB())
	if err != nil {
		t.Fatal(err)
	}
	w, err := wrapper.NewFault(inner, wrapper.FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWrapperConformanceFault runs the wrapper contract suite against a
// fault wrapper with nothing injected: it must be a transparent proxy.
func TestWrapperConformanceFault(t *testing.T) {
	wrappertest.Run(t, func(t *testing.T) wrapper.Wrapper {
		return newBenignFault(t)
	})
}

func TestFaultErrorRateDeterministic(t *testing.T) {
	run := func() []bool {
		w := newBenignFault(t)
		w.Set(wrapper.FaultConfig{ErrorRate: 0.5, Seed: 42})
		out := make([]bool, 40)
		for i := range out {
			_, err := w.Extent([]string{"books"})
			out[i] = err == nil
		}
		return out
	}
	a, b := run(), run()
	oks, fails := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fetch %d differed across identically-seeded runs", i)
		}
		if a[i] {
			oks++
		} else {
			fails++
		}
	}
	if oks == 0 || fails == 0 {
		t.Fatalf("error-rate 0.5 over %d fetches produced %d successes, %d failures", len(a), oks, fails)
	}
}

func TestFaultFlapSchedule(t *testing.T) {
	w := newBenignFault(t)
	w.Set(wrapper.FaultConfig{FlapUp: 2, FlapDown: 3})
	want := []bool{true, true, false, false, false, true, true, false, false, false}
	for i, wantOK := range want {
		_, err := w.Extent([]string{"books"})
		if (err == nil) != wantOK {
			t.Fatalf("fetch %d: ok=%v, want %v (flap 2 up / 3 down)", i, err == nil, wantOK)
		}
	}
}

func TestFaultHangHonoursContext(t *testing.T) {
	w := newBenignFault(t)
	w.Set(wrapper.FaultConfig{Hang: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := wrapper.Drain(ctx, w, []string{"books"}); err == nil {
		t.Fatal("hanging fetch returned without error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hang ignored its context for %v", elapsed)
	}
}

func TestFaultLatencyAndAmplify(t *testing.T) {
	w := newBenignFault(t)
	base, err := w.Extent([]string{"books"})
	if err != nil {
		t.Fatal(err)
	}
	const delay = 40 * time.Millisecond
	w.Set(wrapper.FaultConfig{Latency: delay, Amplify: 3})
	start := time.Now()
	v, err := w.Extent([]string{"books"})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("fetch took %v, want >= %v of injected latency", elapsed, delay)
	}
	if v.Len() != 3*base.Len() {
		t.Errorf("amplified extent has %d items, want %d", v.Len(), 3*base.Len())
	}
	if cfg := w.Config(); cfg.LatencyMs != delay.Milliseconds() {
		t.Errorf("LatencyMs = %d, want %d", cfg.LatencyMs, delay.Milliseconds())
	}
}

func TestFaultPingFollowsSchedule(t *testing.T) {
	w := newBenignFault(t)
	w.Set(wrapper.FaultConfig{FlapUp: 1, FlapDown: 1})
	if err := w.Ping(context.Background()); err != nil {
		t.Fatalf("first ping (up slot): %v", err)
	}
	if err := w.Ping(context.Background()); err == nil {
		t.Fatal("second ping (down slot) succeeded")
	}
}

func TestFaultSnapshotRoundTrip(t *testing.T) {
	w := newBenignFault(t)
	w.Set(wrapper.FaultConfig{ErrorRate: 0.25, Seed: 7, FlapUp: 3, FlapDown: 1})
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "fault" {
		t.Fatalf("snapshot kind = %q, want fault", snap.Kind)
	}
	restored, err := wrapper.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	rf, ok := restored.(*wrapper.Fault)
	if !ok {
		t.Fatalf("restored wrapper is %T, want *wrapper.Fault", restored)
	}
	if got, want := rf.Config(), w.Config(); got != want {
		t.Errorf("restored config = %+v, want %+v", got, want)
	}
	if rf.Kind() != "fault" || rf.Inner().SchemaName() != "S" {
		t.Errorf("restored wrapper: kind=%s inner=%s", rf.Kind(), rf.Inner().SchemaName())
	}
}

func TestFaultFallbackDelegates(t *testing.T) {
	// The relational inner wrapper has no fallback; a Fault over it must
	// report none rather than invent one.
	w := newBenignFault(t)
	if _, ok := w.FallbackExtent([]string{"books"}); ok {
		t.Fatal("fault wrapper invented a fallback extent")
	}
}

func TestFaultInjectedErrorNamesSource(t *testing.T) {
	w := newBenignFault(t)
	w.Set(wrapper.FaultConfig{ErrorRate: 1})
	_, err := w.Extent([]string{"books"})
	if err == nil || !strings.Contains(err.Error(), `"S"`) || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("injected error = %v, want it to name the source", err)
	}
}
