package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// The chaos harness soaks a 4-node dual-rail cluster with all-to-all
// traffic (the shared soak, soak.go) while a seeded schedule of
// component outages (single-rail link cuts, whole-rail outages, full
// node isolation) and background packet loss plays out. The run
// asserts end-to-end byte integrity, delivery of every message and
// completion (no deadlock), and reports recovery latency and the
// fault-path NIC counters. Everything — schedule, workload, and
// simulator — is driven by the one seed, so two runs with the same
// seed must produce identical digests.

const (
	chaosNodes   = 4
	chaosRounds  = 12
	chaosMsgSize = 1536
	chaosOutages = 6
)

// chaosResult is everything one soak run produces.
type chaosResult struct {
	*soakResult
	failovers   uint64
	outageDrops uint64
	stats       chaosCounters
	timeline    string
}

// chaosCounters are the fault-path counters read back from the metrics
// registry at the end of the soak (one source of truth: the same
// snapshot the -metrics flag prints).
type chaosCounters struct {
	retransmits, sendFailures, fastFails, backoffs uint64
	probes, peerDeaths, peerRecoveries             uint64
}

// chaosCountersFrom pulls the fault-path totals out of a registry
// snapshot.
func chaosCountersFrom(s *obs.Snapshot) chaosCounters {
	return chaosCounters{
		retransmits:    s.SumCounter("nic", "retransmits"),
		sendFailures:   s.SumCounter("nic", "send_failures"),
		fastFails:      s.SumCounter("nic", "fast_fails"),
		backoffs:       s.SumCounter("nic", "backoffs"),
		probes:         s.SumCounter("nic", "probes"),
		peerDeaths:     s.SumCounter("nic", "peer_deaths"),
		peerRecoveries: s.SumCounter("nic", "peer_recoveries"),
	}
}

// chaosSoak is the chaos rig at one seed.
func chaosSoak(seed uint64) soakConfig {
	cfg := ibcl.DefaultNICConfig()
	cfg.MaxRetries = 4 // peer death in ~6 ms of virtual time
	return soakConfig{
		name:    "chaos",
		cluster: cluster.Config{Nodes: chaosNodes, Fabric: cluster.Hetero, NIC: cfg, Seed: seed},
		rounds:  chaosRounds, size: chaosMsgSize,
		pace: 15 * sim.Millisecond, horizon: 2 * sim.Second,
		// One registry snapshot every 20 ms of virtual time, so the
		// report can show the fault counters advancing through the
		// outage windows.
		sampleEvery: 20 * sim.Millisecond, sampleRing: 32,
		faults: func(c *cluster.Cluster, base sim.Time) {
			hf := c.Fabric.(*hetero.Fabric)
			// Seeded fault schedule: six outage windows in [20ms, 200ms).
			sched := seed
			for i := 0; i < chaosOutages; i++ {
				kind := splitmix64(&sched) % 4
				node := int(splitmix64(&sched) % chaosNodes)
				start := base + sim.Time(splitmix64(&sched)%uint64(180*sim.Millisecond))
				dur := 4*sim.Millisecond + sim.Time(splitmix64(&sched)%uint64(8*sim.Millisecond))
				switch kind {
				case 0: // Myrinet link cut: failover keeps the node reachable.
					hf.Rail(0).LinkDown(node, start, start+dur)
				case 1: // mesh link cut.
					hf.Rail(1).LinkDown(node, start, start+dur)
				case 2: // whole-rail outage.
					hf.RailDown(int(splitmix64(&sched)%2), start, start+dur)
				case 3: // both rails: the node is unreachable, peers mark it
					// Dead. Long enough for senders to burn a retry ladder
					// inside the window, so deaths actually happen.
					dur += 16 * sim.Millisecond
					hf.Rail(0).LinkDown(node, start, start+dur)
					hf.Rail(1).LinkDown(node, start, start+dur)
				}
			}
			// Background packet loss on the primary rail for retransmit spice.
			if f, ok := hf.Rail(0).(interface{ SetFault(fabric.Fault) }); ok {
				f.SetFault(fabric.RandomLoss(0.02))
			}
		},
	}
}

// chaosRun executes one seeded soak.
func chaosRun(seed uint64) *chaosResult {
	res := &chaosResult{soakResult: chaosSoak(seed).run()}
	c := res.c
	// Everything below reads from the registry snapshot — the same
	// source cmd/bclbench -metrics prints — not from per-package Stats.
	res.failovers = res.snap.SumCounter("fabric:hetero", "failovers")
	res.outageDrops = res.snap.SumCounterPrefix("fabric:", "outage_drops")
	res.stats = chaosCountersFrom(res.snap)
	res.timeline = c.Obs.TimelineText([]obs.TimelineCol{
		{Label: "retransmits", Layer: "nic", Name: "retransmits"},
		{Label: "backoffs", Layer: "nic", Name: "backoffs"},
		{Label: "peer_deaths", Layer: "nic", Name: "peer_deaths"},
		{Label: "recoveries", Layer: "nic", Name: "peer_recoveries"},
		{Label: "failovers", Layer: "fabric:hetero", Name: "failovers"},
	})
	return res
}

// ChaosSeeded runs the seeded chaos soak TWICE and checks the two runs
// are bit-identical — the determinism the whole simulator promises.
func ChaosSeeded(seed uint64) *Report {
	r := newReport("chaos", fmt.Sprintf("Deterministic chaos soak (seed %d)", seed))
	a, b, deterministic := twice(func() *chaosResult { return chaosRun(seed) },
		func(x *chaosResult) any { return [...]any{x.digest, x.delivered, x.resends, x.stats} })

	var sb strings.Builder
	total := chaosSoak(seed).total()
	fmt.Fprintf(&sb, "workload: %d nodes all-to-all, %d rounds x %dB = %d messages\n",
		chaosNodes, chaosRounds, chaosMsgSize, total)
	fmt.Fprintf(&sb, "faults:   %d outage windows + 2%% loss on the Myrinet rail\n\n", chaosOutages)
	fmt.Fprintf(&sb, "%-28s %12s\n", "", "run")
	fmt.Fprintf(&sb, "%-28s %12d\n", "delivered (deduped)", a.delivered)
	fmt.Fprintf(&sb, "%-28s %12d\n", "app-level duplicates", a.duplicates)
	fmt.Fprintf(&sb, "%-28s %12d\n", "corrupt payloads", a.corrupt)
	fmt.Fprintf(&sb, "%-28s %12d\n", "sender resends", a.resends)
	fmt.Fprintf(&sb, "%-28s %12d\n", "rail failovers", a.failovers)
	fmt.Fprintf(&sb, "%-28s %12d\n", "fabric outage drops", a.outageDrops)
	fmt.Fprintf(&sb, "%-28s %12v\n", "deadlocked", a.deadlocked)
	if a.recoveries > 0 {
		fmt.Fprintf(&sb, "%-28s %10.2fms\n", "mean recovery latency",
			float64(a.recSum)/float64(a.recoveries)/float64(sim.Millisecond))
		fmt.Fprintf(&sb, "%-28s %10.2fms\n", "max recovery latency",
			float64(a.recMax)/float64(sim.Millisecond))
	}
	sb.WriteString("\n" + faultCountersText(a.stats))
	sb.WriteString("\nfault-counter timeline (20ms virtual-time samples, run 1):\n")
	sb.WriteString(a.timeline)
	fmt.Fprintf(&sb, "\ndigest: %016x (run 1) / %016x (run 2)\n", a.digest, b.digest)
	r.Text = sb.String()
	r.Snap = a.snap
	r.metric("delivered", float64(a.delivered))
	r.metric("duplicates", float64(a.duplicates))
	r.metric("resends", float64(a.resends))
	r.metric("failovers", float64(a.failovers))
	r.metric("peer_deaths", float64(a.stats.peerDeaths))
	r.metric("peer_recoveries", float64(a.stats.peerRecoveries))
	r.metric("retransmits", float64(a.stats.retransmits))
	r.metric("send_failures", float64(a.stats.sendFailures))
	r.metric("fast_fails", float64(a.stats.fastFails))
	r.metric("backoffs", float64(a.stats.backoffs))
	if a.recoveries > 0 {
		r.metric("max_recovery_ms", float64(a.recMax)/float64(sim.Millisecond))
	}
	r.mustZero("corrupt", a.corrupt)
	r.must("all_delivered", a.delivered == total)
	r.must("deterministic", deterministic)
	r.mustNot("deadlocked", a.deadlocked)
	return r
}
