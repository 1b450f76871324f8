package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/hw"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// The survival harness exercises the three failure classes the
// survivable-NIC work defends against, in two phases:
//
// Phase A — combined-chaos soak. A 4-node dual-rail cluster runs paced
// all-to-all traffic while a seeded schedule of firmware crashes plays
// out (the kernel watchdog reboots each dead MCP and replays its
// journal), random bit corruption runs on the Myrinet rail (CRC drops
// plus retransmit heal it), and a slow-rail window degrades latency
// without losing anything. The bar is exactly-once: every message
// delivered exactly once with intact bytes, with the application never
// seeing a send failure — recovery is the kernel's job, not the
// library's.
//
// Phase B — gray-failure tail. A 2-node ping-pong stream crosses a
// long window in which the policy rail is 24x slower but alive — the
// classic gray failure that fixed timeouts cannot see. The run is done
// twice, once with the Jacobson-style adaptive RTO estimator (which
// detects the inflated RTT and steers onto the healthy rail) and once
// with the fixed-backoff baseline. The adaptive tail (P99.9) must
// strictly beat the fixed one.
//
// Everything is driven by the one seed; SurvivalSeeded runs the whole
// experiment twice and the two digests must match bit-for-bit.

const (
	survNodes   = 4
	survRounds  = 10
	survMsgSize = 1536
	survCrashes = 3

	grayRounds  = 4000
	grayMsgSize = 1024
)

// survCounters are the survivability counters read back from the
// registry snapshot at the end of the soak.
type survCounters struct {
	fwCrashes, nicReboots, crcDrops, retransmits  uint64
	resyncsSent, resyncRewinds, dupMsgDrops       uint64
	epochResets, deadDrops, grayFailovers         uint64
	watchdogTrips, nicRecoveries, replayedRecords uint64
}

func survCountersFrom(s *obs.Snapshot) survCounters {
	return survCounters{
		fwCrashes:       s.SumCounter("nic", "fw_crashes"),
		nicReboots:      s.SumCounter("nic", "nic_reboots"),
		crcDrops:        s.SumCounter("nic", "crc_drops"),
		retransmits:     s.SumCounter("nic", "retransmits"),
		resyncsSent:     s.SumCounter("nic", "resyncs_sent"),
		resyncRewinds:   s.SumCounter("nic", "resync_rewinds"),
		dupMsgDrops:     s.SumCounter("nic", "dup_msg_drops"),
		epochResets:     s.SumCounter("nic", "epoch_resets"),
		deadDrops:       s.SumCounter("nic", "dead_drops"),
		grayFailovers:   s.SumCounter("nic", "gray_failovers"),
		watchdogTrips:   s.SumCounter("kernel", "watchdog_trips"),
		nicRecoveries:   s.SumCounter("kernel", "nic_recoveries"),
		replayedRecords: s.SumCounter("kernel", "replayed_records"),
	}
}

// survProfile is DAWNING-3000 with fast recovery knobs, so a firmware
// reboot (~1.5 ms end to end) completes well inside the sender retry
// ladder (~40 ms to peer death) and crashes stay invisible to the
// application.
func survProfile() *hw.Profile {
	prof := hw.DAWNING3000()
	prof.MCPHeartbeatInterval = 100 * sim.Microsecond
	prof.WatchdogInterval = 300 * sim.Microsecond
	prof.MCPRebootTime = 1 * sim.Millisecond
	return prof
}

// survResult is everything one Phase A soak produces.
type survResult struct {
	digest        uint64
	delivered     int
	duplicates    int
	byteErrors    int
	resends       int
	deadlocked    bool
	stats         survCounters
	recoveryMaxUs float64
	snap          *obs.Snapshot
	timeline      string
	flight        string
}

// survRun executes one seeded combined-chaos soak (Phase A).
func survRun(seed uint64) *survResult {
	cfg := ibcl.DefaultNICConfig()
	cfg.AdaptiveRTO = true
	c := newCluster(cluster.Config{
		Nodes: survNodes, Fabric: cluster.Hetero, Profile: survProfile(),
		NIC: cfg, Seed: seed, Watchdog: true,
	})
	hf := c.Fabric.(*hetero.Fabric)
	sys := ibcl.NewSystem(c)

	ports := make([]*ibcl.Port, survNodes)
	c.Env.Go("setup", func(p *sim.Proc) {
		for i := 0; i < survNodes; i++ {
			proc := c.Nodes[i].Kernel.Spawn()
			ports[i], _ = sys.Open(p, c.Nodes[i], proc, ibcl.Options{SystemBuffers: 64})
		}
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	for _, pt := range ports {
		if pt == nil {
			panic("bench: survival rig setup failed")
		}
	}
	c.Obs.StartSampler(c.Env, 20*sim.Millisecond, 32)
	base := c.Env.Now()

	// Seeded crash schedule: three staggered firmware crashes, far
	// enough apart that each recovery (~1.5 ms) finishes long before
	// the next crash lands.
	res := &survResult{}
	sched := seed ^ 0xda3e39cb94b95bdb
	for k := 0; k < survCrashes; k++ {
		node := int(splitmix64(&sched) % survNodes)
		at := base + 25*sim.Millisecond + sim.Time(k)*45*sim.Millisecond +
			sim.Time(splitmix64(&sched)%uint64(15*sim.Millisecond))
		c.Nodes[node].NIC.CrashAt(at)
	}
	// Silent corruption on the Myrinet rail: the per-fragment CRC must
	// catch every flip and retransmission must heal it.
	if f, ok := hf.Rail(0).(interface{ SetFault(fabric.Fault) }); ok {
		f.SetFault(fabric.RandomCorrupt(0.015))
	}
	// A gray window on top: the policy rail runs 8x slow mid-soak.
	hf.RailSlow(0, base+60*sim.Millisecond, base+95*sim.Millisecond, 8)

	// Receivers: verify payload bytes, dedup by tag, fold arrivals into
	// a per-port order-dependent digest.
	digests := make([]uint64, survNodes)
	seen := make([]map[uint64]bool, survNodes)
	for i := range seen {
		seen[i] = make(map[uint64]bool)
	}
	expected := (survNodes - 1) * survRounds // per receiver, after dedup
	for i := 0; i < survNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("surv-rx%d", i), func(p *sim.Proc) {
			const prime = 0x100000001b3
			digests[i] = 0xcbf29ce484222325
			for len(seen[i]) < expected {
				ev, ok := pt.TryRecv(p)
				if !ok {
					p.Sleep(200 * sim.Microsecond)
					continue
				}
				if seen[i][ev.Tag] {
					res.duplicates++
					continue
				}
				seen[i][ev.Tag] = true
				src := int(ev.Tag >> 32)
				round := int(ev.Tag >> 8 & 0xffffff)
				data, _ := pt.Process().Space.Read(ev.VA, ev.Len)
				sum := uint64(0)
				bad := false
				for j, bb := range data {
					if bb != chaosPattern(src, i, round, j) {
						bad = true
						break
					}
					sum += uint64(bb)
				}
				if bad || ev.Len != survMsgSize {
					res.byteErrors++
				}
				res.delivered++
				digests[i] = (digests[i] ^ ev.Tag) * prime
				digests[i] = (digests[i] ^ uint64(ev.Len)) * prime
				digests[i] = (digests[i] ^ sum) * prime
			}
		})
	}

	// Senders: paced all-to-all rounds spanning the whole fault
	// schedule. Recovery is supposed to keep every send succeeding; the
	// wait-and-resend arm is a backstop that (if ever taken) shows up
	// in the resends metric and, via duplicates, breaks exactly_once.
	sendersDone := make([]bool, survNodes)
	for i := 0; i < survNodes; i++ {
		i := i
		pt := ports[i]
		c.Env.Go(fmt.Sprintf("surv-tx%d", i), func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(survMsgSize)
			buf := make([]byte, survMsgSize)
			p.Sleep(sim.Time(i) * sim.Millisecond) // de-lockstep the senders
			for round := 0; round < survRounds; round++ {
				p.Sleep(15 * sim.Millisecond)
				for d := 1; d < survNodes; d++ {
					dst := (i + d) % survNodes
					for j := range buf {
						buf[j] = chaosPattern(i, dst, round, j)
					}
					pt.Process().Space.Write(va, buf)
					for {
						_, err := pt.Send(p, ports[dst].Addr(), ibcl.SystemChannel,
							va, survMsgSize, chaosTag(i, dst, round))
						if err != nil {
							panic(err)
						}
						if pt.WaitSend(p).Type == nic.EvSendDone {
							break
						}
						for !pt.PeerHealthy(ports[dst].Addr().Node) {
							p.Sleep(500 * sim.Microsecond)
						}
						res.resends++
					}
				}
			}
			sendersDone[i] = true
		})
	}

	// The workload spans ~175 ms; 400 ms leaves room for stragglers and
	// keeps the fault window inside the timeline ring.
	c.Env.RunUntil(c.Env.Now() + 400*sim.Millisecond)
	for _, d := range sendersDone {
		if !d {
			res.deadlocked = true
		}
	}

	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	for _, d := range digests {
		h = (h ^ d) * prime
	}
	h = (h ^ uint64(res.delivered)) * prime
	h = (h ^ uint64(res.duplicates)) * prime
	h = (h ^ uint64(res.byteErrors)) * prime
	h = (h ^ uint64(res.resends)) * prime
	res.digest = h

	res.snap = c.Obs.Snapshot(c.Env.Now())
	res.stats = survCountersFrom(res.snap)
	if hist := res.snap.MergedHist("nic", "recovery_latency_ns"); hist.Count > 0 {
		res.recoveryMaxUs = float64(hist.Max) / 1000
	}
	res.timeline = c.Obs.TimelineText([]obs.TimelineCol{
		{Label: "reboots", Layer: "nic", Name: "nic_reboots"},
		{Label: "crc_drops", Layer: "nic", Name: "crc_drops"},
		{Label: "retransmits", Layer: "nic", Name: "retransmits"},
		{Label: "resyncs", Layer: "nic", Name: "resyncs_sent"},
		{Label: "replays", Layer: "kernel", Name: "replayed_records"},
	})
	res.flight = c.Obs.Rec.Text(16)
	return res
}

// grayResult is one Phase B tail measurement.
type grayResult struct {
	p50, p999     sim.Time
	rounds        int
	grayFailovers uint64
	graySteers    uint64
	retransmits   uint64
	deadlocked    bool
}

// grayRun measures the ping-pong round-trip tail across a slow-rail
// window, with or without the adaptive RTO estimator.
func grayRun(seed uint64, adaptive bool) *grayResult {
	prof := hw.DAWNING3000()
	// One gray trip should cover the whole window: hold the steer
	// longer than the degradation lasts.
	prof.GraySteerHold = 200 * sim.Millisecond
	cfg := ibcl.DefaultNICConfig()
	cfg.AdaptiveRTO = adaptive
	c := newCluster(cluster.Config{
		Nodes: 2, Fabric: cluster.Hetero, Profile: prof, NIC: cfg, Seed: seed,
	})
	hf := c.Fabric.(*hetero.Fabric)
	sys := ibcl.NewSystem(c)

	var a, b *ibcl.Port
	c.Env.Go("setup", func(p *sim.Proc) {
		pa := c.Nodes[0].Kernel.Spawn()
		pb := c.Nodes[1].Kernel.Spawn()
		a, _ = sys.Open(p, c.Nodes[0], pa, ibcl.Options{SystemBuffers: 8})
		b, _ = sys.Open(p, c.Nodes[1], pb, ibcl.Options{SystemBuffers: 8})
	})
	c.Env.RunUntil(10 * sim.Millisecond)
	if a == nil || b == nil {
		panic("bench: gray rig setup failed")
	}
	base := c.Env.Now()

	// The policy rail (Myrinet) turns 24x slower — alive, in order,
	// nothing lost — for a 60 ms window a seeded jitter into the run.
	sched := seed ^ 0x6a09e667f3bcc909
	start := base + 20*sim.Millisecond + sim.Time(splitmix64(&sched)%uint64(8*sim.Millisecond))
	hf.RailSlow(0, start, start+60*sim.Millisecond, 24)

	res := &grayResult{}
	durations := make([]sim.Time, 0, grayRounds)
	c.Env.Go("gray-pingpong", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(grayMsgSize)
		vb := b.Process().Space.Alloc(grayMsgSize)
		for i := 0; i < grayRounds; i++ {
			t0 := p.Now()
			if _, err := a.Send(p, b.Addr(), ibcl.SystemChannel, va, grayMsgSize, 1); err != nil {
				panic(err)
			}
			ev := b.WaitRecv(p)
			b.ReturnSystemBuffer(p, ev.VA, 4096)
			if _, err := b.Send(p, a.Addr(), ibcl.SystemChannel, vb, grayMsgSize, 2); err != nil {
				panic(err)
			}
			ev = a.WaitRecv(p)
			a.ReturnSystemBuffer(p, ev.VA, 4096)
			durations = append(durations, p.Now()-t0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 1*sim.Second)

	res.rounds = len(durations)
	res.deadlocked = res.rounds != grayRounds
	res.p50 = pctile(durations, 0.50)
	res.p999 = pctile(durations, 0.999)
	snap := c.Obs.Snapshot(c.Env.Now())
	res.grayFailovers = snap.SumCounter("nic", "gray_failovers")
	res.retransmits = snap.SumCounter("nic", "retransmits")
	res.graySteers = hf.GraySteers()
	return res
}

// pctile returns the q-quantile of d (nearest-rank, q in (0,1]).
func pctile(d []sim.Time, q float64) sim.Time {
	if len(d) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// survivalOnce runs both phases for one seed and folds everything into
// one digest.
type survivalOnce struct {
	soak     *survResult
	adaptive *grayResult
	fixed    *grayResult
	digest   uint64
}

func runSurvivalOnce(seed uint64) *survivalOnce {
	o := &survivalOnce{
		soak:     survRun(seed),
		adaptive: grayRun(seed, true),
		fixed:    grayRun(seed, false),
	}
	const prime = 0x100000001b3
	h := o.soak.digest
	for _, g := range []*grayResult{o.adaptive, o.fixed} {
		h = (h ^ uint64(g.p50)) * prime
		h = (h ^ uint64(g.p999)) * prime
		h = (h ^ g.grayFailovers) * prime
		h = (h ^ g.graySteers) * prime
		h = (h ^ g.retransmits) * prime
	}
	o.digest = h
	return o
}

// SurvivalSeeded runs the two-phase survivability experiment TWICE and
// checks the runs are bit-identical.
func SurvivalSeeded(seed uint64) *Report {
	r := newReport("survival", fmt.Sprintf("Survivable NIC gauntlet: crash + corrupt + gray (seed %d)", seed))
	x := runSurvivalOnce(seed)
	y := runSurvivalOnce(seed)
	deterministic := x.digest == y.digest && x.soak.stats == y.soak.stats &&
		x.soak.delivered == y.soak.delivered && x.soak.resends == y.soak.resends

	a := x.soak
	total := survNodes * (survNodes - 1) * survRounds
	exactlyOnce := a.delivered == total && a.duplicates == 0 && a.byteErrors == 0
	deadlocked := a.deadlocked || x.adaptive.deadlocked || x.fixed.deadlocked
	adBeatsFixed := x.adaptive.p999 < x.fixed.p999

	var sb strings.Builder
	fmt.Fprintf(&sb, "phase A: %d nodes all-to-all, %d rounds x %dB = %d messages\n",
		survNodes, survRounds, survMsgSize, total)
	fmt.Fprintf(&sb, "faults:  %d firmware crashes + 1.5%% bit flips (Myrinet rail) + 8x slow window\n\n",
		survCrashes)
	fmt.Fprintf(&sb, "%-28s %12s\n", "", "run")
	fmt.Fprintf(&sb, "%-28s %12d\n", "delivered (of total)", a.delivered)
	fmt.Fprintf(&sb, "%-28s %12d\n", "app-level duplicates", a.duplicates)
	fmt.Fprintf(&sb, "%-28s %12d\n", "payload byte errors", a.byteErrors)
	fmt.Fprintf(&sb, "%-28s %12d\n", "library-level resends", a.resends)
	fmt.Fprintf(&sb, "%-28s %12v\n", "exactly-once", exactlyOnce)
	fmt.Fprintf(&sb, "%-28s %12d\n", "firmware crashes", a.stats.fwCrashes)
	fmt.Fprintf(&sb, "%-28s %12d\n", "watchdog trips", a.stats.watchdogTrips)
	fmt.Fprintf(&sb, "%-28s %12d\n", "NIC reboots", a.stats.nicReboots)
	fmt.Fprintf(&sb, "%-28s %12d\n", "journal records replayed", a.stats.replayedRecords)
	fmt.Fprintf(&sb, "%-28s %12d\n", "epoch resyncs sent", a.stats.resyncsSent)
	fmt.Fprintf(&sb, "%-28s %12d\n", "resync rewinds", a.stats.resyncRewinds)
	fmt.Fprintf(&sb, "%-28s %12d\n", "duplicate msgs swallowed", a.stats.dupMsgDrops)
	fmt.Fprintf(&sb, "%-28s %12d\n", "CRC drops", a.stats.crcDrops)
	fmt.Fprintf(&sb, "%-28s %12d\n", "retransmits", a.stats.retransmits)
	if a.recoveryMaxUs > 0 {
		fmt.Fprintf(&sb, "%-28s %10.1fus\n", "max crash-to-ready", a.recoveryMaxUs)
	}
	sb.WriteString("\nsurvival-counter timeline (20ms virtual-time samples, run 1):\n")
	sb.WriteString(a.timeline)

	fmt.Fprintf(&sb, "\nphase B: %d ping-pong rounds x %dB across a 24x gray window (60 ms)\n",
		grayRounds, grayMsgSize)
	fmt.Fprintf(&sb, "%-28s %12s %12s\n", "", "adaptive", "fixed")
	fmt.Fprintf(&sb, "%-28s %10.1fus %10.1fus\n", "round-trip P50",
		us(x.adaptive.p50), us(x.fixed.p50))
	fmt.Fprintf(&sb, "%-28s %10.1fus %10.1fus\n", "round-trip P99.9",
		us(x.adaptive.p999), us(x.fixed.p999))
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "retransmits",
		x.adaptive.retransmits, x.fixed.retransmits)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "gray failovers",
		x.adaptive.grayFailovers, x.fixed.grayFailovers)
	fmt.Fprintf(&sb, "%-28s %12d %12d\n", "packets steered",
		x.adaptive.graySteers, x.fixed.graySteers)
	fmt.Fprintf(&sb, "%-28s %12v\n", "adaptive beats fixed", adBeatsFixed)

	fmt.Fprintf(&sb, "\ndigest: %016x (run 1) / %016x (run 2) -> deterministic: %v\n",
		x.digest, y.digest, deterministic)
	if !deterministic || deadlocked || !exactlyOnce {
		sb.WriteString("\n*** SURVIVAL GAUNTLET FAILED ***\n")
		sb.WriteString("\n" + a.flight)
	}
	r.Text = sb.String()
	r.Snap = a.snap

	r.metric("delivered", float64(a.delivered))
	r.metric("duplicates", float64(a.duplicates))
	r.metric("byte_errors", float64(a.byteErrors))
	r.metric("resends", float64(a.resends))
	r.metric("fw_crashes", float64(a.stats.fwCrashes))
	r.metric("watchdog_trips", float64(a.stats.watchdogTrips))
	r.metric("nic_reboots", float64(a.stats.nicReboots))
	r.metric("nic_recoveries", float64(a.stats.nicRecoveries))
	r.metric("replayed_records", float64(a.stats.replayedRecords))
	r.metric("resyncs_sent", float64(a.stats.resyncsSent))
	r.metric("resync_rewinds", float64(a.stats.resyncRewinds))
	r.metric("dup_msg_drops", float64(a.stats.dupMsgDrops))
	r.metric("crc_drops", float64(a.stats.crcDrops))
	r.metric("retransmits", float64(a.stats.retransmits))
	if a.recoveryMaxUs > 0 {
		r.metric("recovery_max_us", a.recoveryMaxUs)
	}
	r.metric("adaptive_p50_us", us(x.adaptive.p50))
	r.metric("adaptive_p999_us", us(x.adaptive.p999))
	r.metric("fixed_p50_us", us(x.fixed.p50))
	r.metric("fixed_p999_us", us(x.fixed.p999))
	r.metric("gray_failovers", float64(x.adaptive.grayFailovers))
	r.metric("gray_steers", float64(x.adaptive.graySteers))

	r.metric("exactly_once", b2f(exactlyOnce))
	r.metric("crc_drops_nonzero", b2f(a.stats.crcDrops > 0))
	r.metric("nic_reboots_nonzero", b2f(a.stats.nicReboots > 0))
	r.metric("adaptive_beats_fixed", b2f(adBeatsFixed))
	r.metric("gray_failover_nonzero", b2f(x.adaptive.grayFailovers > 0))
	r.metric("deterministic", b2f(deterministic))
	r.metric("deadlocked", b2f(deadlocked))
	return r
}
