package main

import (
	"errors"
	"testing"

	"bcl/internal/sim"
)

// serve's baseline mix: twelve contended transaction pairs, a 25 ms
// arrival window and 2048 B buffers (internal/bench/serve.go).
const (
	servePairs   = 12
	serveWindow  = 25 * sim.Millisecond
	serveBufSize = 2048
	stallSeeds   = 128 // seeds searched for the stall
	wedgeSeeds   = 32  // seeds searched for an oversized transaction
)

// TestKVStallCountsAsSLOMiss proves the failure accounting on the
// service tier's known seed-dependent stall. It searches seeds of
// kv-swarm under serve's contended mix for one where the repository's
// own svc-slo-burn health rule fires, and checks that the benchmark
// counts that seed's stalled requests in slo_miss_frac. Seeds where
// the same defect instead leaves a client cache incoherent fail the
// coherence check; they are logged and skipped.
func TestKVStallCountsAsSLOMiss(t *testing.T) {
	w := lookupWorkload("kv-swarm")
	for seed := uint64(1); seed <= stallSeeds; seed++ {
		rc := newRep(nil)
		r, err := w.run(kvInputsWith(seed, servePairs, serveWindow, serveBufSize), rc)
		var ce *checkError
		if errors.As(err, &ce) {
			t.Logf("seed %d: %v", seed, err)
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rc.finish(r)
		if r.sloAlerts == 0 {
			continue
		}
		miss := frac(r.sloMiss, r.attempted)
		t.Logf("seed %d stalls: svc-slo-burn fired %d times, p99 %.1f ms, slo_miss_frac %.3f (%d of %d; %d failed)",
			seed, r.sloAlerts, float64(quantile(r.lat, 0.99))/1e6, miss, r.sloMiss, r.attempted, r.failed)
		if miss <= 0 {
			t.Fatalf("seed %d: svc-slo-burn fired but slo_miss_frac is %v", seed, miss)
		}
		if r.sloMiss <= r.failed {
			t.Fatalf("seed %d: none of the %d SLO misses is a slow answer", seed, r.sloMiss)
		}
		return
	}
	t.Fatalf("svc-slo-burn fired on none of seeds 1-%d: if the service tier's stall is fixed, this test has done its job", stallSeeds)
}

// TestKVOversizedTxnWedges keeps under test why kv-swarm's buffers are
// kvBufSize and not serve's 2048 B. A transaction request carries its
// value twice, so two values near 1024 B make it larger than a 2048 B
// system buffer: the receiving NIC drops it, the sender retransmits it
// forever, and the link behind it wedges until a client cache is left
// stale. The test searches kv-swarm's own mix with 2048 B buffers for a
// seed that fails its checks, and checks that the same seed passes with
// kvBufSize, the only difference.
func TestKVOversizedTxnWedges(t *testing.T) {
	w := lookupWorkload("kv-swarm")
	for seed := uint64(1); seed <= wedgeSeeds; seed++ {
		_, err := w.run(kvInputsWith(seed, kvPairs, kvWindow, serveBufSize), newRep(nil))
		if err == nil {
			continue
		}
		var ce *checkError
		if !errors.As(err, &ce) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d with %d B buffers: %v", seed, serveBufSize, err)
		if _, err := w.run(kvInputs(seed), newRep(nil)); err != nil {
			t.Fatalf("seed %d with %d B buffers: %v", seed, kvBufSize, err)
		}
		return
	}
	t.Fatalf("kv-swarm passed on seeds 1-%d with %d B buffers: if oversized transactions are fixed, this test has done its job", wedgeSeeds, serveBufSize)
}
