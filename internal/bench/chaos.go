package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// The chaos harness soaks a 4-node dual-rail cluster with all-to-all
// traffic while a seeded schedule of component outages (single-rail
// link cuts, whole-rail outages, full node isolation) and background
// packet loss plays out. Senders treat EvSendFailed as a transient
// condition: they wait for the peer-health machine to re-admit the
// destination and resend, giving at-least-once delivery that the
// receivers deduplicate by message tag. The run asserts end-to-end
// byte integrity and completion (no deadlock), and reports recovery
// latency and the fault-path NIC counters. Everything — schedule,
// workload, and simulator — is driven by the one seed, so two runs
// with the same seed must produce identical digests.

const (
	chaosNodes   = 4
	chaosRounds  = 12
	chaosMsgSize = 1536
)

// chaosResult is everything one soak run produces.
type chaosResult struct {
	digest      uint64
	delivered   int
	duplicates  int
	corrupt     int
	deadlocked  bool
	outages     int
	resends     int
	recoveries  int
	recSum      sim.Time
	recMax      sim.Time
	failovers   uint64
	outageDrops uint64
	stats       chaosCounters
	finished    sim.Time
	snap        *obs.Snapshot
	timeline    string
	flight      string
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

// splitmix64 advances *x and returns the next value of the schedule
// stream. The schedule has its own generator so it never perturbs the
// simulator's RNG draws.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosPattern is the deterministic payload byte for message (src,
// dst, round) at offset j — receivers re-derive it to verify
// integrity.
func chaosPattern(src, dst, round, j int) byte {
	return byte(src*7 + dst*13 + round*31 + j*3)
}

// chaosTag packs (src, dst, round) into a message tag.
func chaosTag(src, dst, round int) uint64 {
	return uint64(src)<<32 | uint64(round)<<8 | uint64(dst)
}

// chaosRun executes one seeded soak.
func chaosRun(seed uint64) *chaosResult {
	cfg := ibcl.DefaultNICConfig()
	cfg.MaxRetries = 4 // peer death in ~6 ms of virtual time
	c := newCluster(cluster.Config{
		Nodes: chaosNodes, Fabric: cluster.Hetero, NIC: cfg, Seed: seed,
	})
	hf := c.Fabric.(*hetero.Fabric)
	sys := ibcl.NewSystem(c)

	ports := make([]*ibcl.Port, chaosNodes)
	c.Env.Go("setup", func(p *sim.Proc) {
		for i := 0; i < chaosNodes; i++ {
			proc := c.Nodes[i].Kernel.Spawn()
			ports[i], _ = sys.Open(p, c.Nodes[i], proc, ibcl.Options{SystemBuffers: 64})
		}
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	for _, pt := range ports {
		if pt == nil {
			panic("bench: chaos rig setup failed")
		}
	}
	// Metrics sampler: one registry snapshot every 20 ms of virtual
	// time, so the report can show the fault counters advancing through
	// the outage windows.
	c.Obs.StartSampler(c.Env, 20*sim.Millisecond, 32)

	// Seeded fault schedule: six outage windows in [20ms, 200ms).
	res := &chaosResult{}
	sched := seed
	for i := 0; i < 6; i++ {
		kind := splitmix64(&sched) % 4
		node := int(splitmix64(&sched) % chaosNodes)
		start := c.Env.Now() + sim.Time(splitmix64(&sched)%uint64(180*sim.Millisecond))
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
		res.outages++
	}
	// Background packet loss on the primary rail for retransmit spice.
	if f, ok := hf.Rail(0).(interface{ SetFault(fabric.Fault) }); ok {
		f.SetFault(fabric.RandomLoss(0.02))
	}

	// Receivers: verify payload bytes, dedup by tag, fold arrivals
	// into a per-port order-dependent digest.
	digests := make([]uint64, chaosNodes)
	seen := make([]map[uint64]bool, chaosNodes)
	for i := range seen {
		seen[i] = make(map[uint64]bool)
	}
	expected := (chaosNodes - 1) * chaosRounds // per receiver, after dedup
	for i := 0; i < chaosNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("chaos-rx%d", i), func(p *sim.Proc) {
			const prime = 0x100000001b3
			digests[i] = 0xcbf29ce484222325
			for len(seen[i]) < expected {
				ev, ok := pt.TryRecv(p)
				if !ok {
					p.Sleep(200 * sim.Microsecond)
					continue
				}
				if seen[i][ev.Tag] {
					res.duplicates++ // ACK lost, sender resent: drop the copy
					continue
				}
				seen[i][ev.Tag] = true
				src := int(ev.Tag >> 32)
				round := int(ev.Tag >> 8 & 0xffffff)
				data, _ := pt.Process().Space.Read(ev.VA, ev.Len)
				sum := uint64(0)
				for j, bb := range data {
					if bb != chaosPattern(src, i, round, j) {
						res.corrupt++
						break
					}
					sum += uint64(bb)
				}
				res.delivered++
				digests[i] = (digests[i] ^ ev.Tag) * prime
				digests[i] = (digests[i] ^ uint64(ev.Len)) * prime
				digests[i] = (digests[i] ^ sum) * prime
			}
		})
	}

	// Senders: all-to-all rounds with wait-for-recovery resend on
	// failure.
	sendersDone := make([]bool, chaosNodes)
	for i := 0; i < chaosNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("chaos-tx%d", i), func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(chaosMsgSize)
			buf := make([]byte, chaosMsgSize)
			p.Sleep(sim.Time(i) * sim.Millisecond) // de-lockstep the senders
			for round := 0; round < chaosRounds; round++ {
				// Pace the rounds so the soak spans the whole fault
				// schedule instead of finishing before it starts.
				p.Sleep(15 * sim.Millisecond)
				for d := 1; d < chaosNodes; d++ {
					dst := (i + d) % chaosNodes
					for j := range buf {
						buf[j] = chaosPattern(i, dst, round, j)
					}
					pt.Process().Space.Write(va, buf)
					for {
						_, err := pt.Send(p, ports[dst].Addr(), ibcl.SystemChannel,
							va, chaosMsgSize, chaosTag(i, dst, round))
						if err != nil {
							panic(err)
						}
						if pt.WaitSend(p).Type == nic.EvSendDone {
							break
						}
						// The peer is Dead. Wait for probe-driven
						// recovery, then resend (at-least-once).
						t0 := p.Now()
						for !pt.PeerHealthy(ports[dst].Addr().Node) {
							p.Sleep(500 * sim.Microsecond)
						}
						rec := p.Now() - t0
						res.recoveries++
						res.recSum += rec
						if rec > res.recMax {
							res.recMax = rec
						}
						res.resends++
					}
				}
			}
			sendersDone[i] = true
		})
	}

	c.Env.RunUntil(c.Env.Now() + 2*sim.Second)
	res.finished = c.Env.Now()

	for _, d := range sendersDone {
		if !d {
			res.deadlocked = true
		}
	}
	// Fold the per-port digests and run totals in fixed order.
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, d := range digests {
		h = (h ^ d) * prime
	}
	h = (h ^ uint64(res.delivered)) * prime
	h = (h ^ uint64(res.duplicates)) * prime
	h = (h ^ uint64(res.corrupt)) * prime
	res.digest = h
	// Everything below reads from the registry snapshot — the same
	// source cmd/bclbench -metrics prints — not from per-package Stats.
	res.snap = c.Obs.Snapshot(c.Env.Now())
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
	res.flight = c.Obs.Rec.Text(16)
	return res
}

// ChaosSeeded runs the seeded chaos soak TWICE and checks the two runs
// are bit-identical — the determinism the whole simulator promises.
func ChaosSeeded(seed uint64) *Report {
	r := newReport("chaos", fmt.Sprintf("Deterministic chaos soak (seed %d)", seed))
	a := chaosRun(seed)
	b := chaosRun(seed)
	deterministic := a.digest == b.digest && a.delivered == b.delivered &&
		a.resends == b.resends && a.stats == b.stats

	var sb strings.Builder
	total := chaosNodes * (chaosNodes - 1) * chaosRounds
	fmt.Fprintf(&sb, "workload: %d nodes all-to-all, %d rounds x %dB = %d messages\n",
		chaosNodes, chaosRounds, chaosMsgSize, total)
	fmt.Fprintf(&sb, "faults:   %d outage windows + 2%% loss on the Myrinet rail\n\n", a.outages)
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
	fmt.Fprintf(&sb, "\ndigest: %016x (run 1) / %016x (run 2) -> deterministic: %v\n",
		a.digest, b.digest, deterministic)
	if !deterministic || a.deadlocked || a.corrupt > 0 || a.delivered != total {
		sb.WriteString("\n*** CHAOS SOAK FAILED ***\n")
		sb.WriteString("\n" + a.flight)
	}
	r.Text = sb.String()
	r.Snap = a.snap
	r.metric("delivered", float64(a.delivered))
	r.metric("duplicates", float64(a.duplicates))
	r.metric("corrupt", float64(a.corrupt))
	r.metric("resends", float64(a.resends))
	r.metric("failovers", float64(a.failovers))
	r.metric("peer_deaths", float64(a.stats.peerDeaths))
	r.metric("peer_recoveries", float64(a.stats.peerRecoveries))
	r.metric("retransmits", float64(a.stats.retransmits))
	r.metric("send_failures", float64(a.stats.sendFailures))
	r.metric("fast_fails", float64(a.stats.fastFails))
	r.metric("backoffs", float64(a.stats.backoffs))
	r.metric("deterministic", b2f(deterministic))
	r.metric("deadlocked", b2f(a.deadlocked))
	if a.recoveries > 0 {
		r.metric("max_recovery_ms", float64(a.recMax)/float64(sim.Millisecond))
	}
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
