package bench

import (
	"fmt"
	"hash/fnv"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/fabric/hetero"
	"bcl/internal/obs/health"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// The healthwatch experiment gates the cluster health engine end to
// end, in two phases driven by one seed:
//
// Clean phase — a 4-node dual-rail cluster runs paced all-to-all
// traffic with the health engine attached and NO faults. The default
// rule set must stay silent: zero alert transitions. This pins the
// rule bounds above anything a healthy run produces, so alerts mean
// something.
//
// Fault phase — the same rig plus the survival-style injectors: one
// seeded firmware crash (the kernel watchdog heals it), random bit
// corruption on the Myrinet rail, and a gray window in which that rail
// runs slow but alive. Three specific rules must fire — crc-spike,
// watchdog-trip and rail-divergence — each at an exact virtual
// timestamp, and the first firing must emit a bcl-postmortem/v1
// bundle.
//
// The whole experiment runs twice; the alert timelines and the bundle
// bytes must match bit for bit — alerts ride the virtual clock, so
// "when did it fire" is reproducible evidence, not a race.

const (
	hwNodes   = 4
	hwRounds  = 8
	hwMsgSize = 1024
	hwPace    = 8 * sim.Millisecond
)

// hwResult is everything one phase run produces.
type hwResult struct {
	*soakResult
	transitions []health.Transition
	timeline    string
	top         string
	frames      []string
	bundle      []byte // first postmortem bundle, encoded
	bundles     int
	fired       map[string]int // firing-transition count per rule
	samples     int
}

// healthSoak is the shared rig at one seed, plus the fault schedule
// when fault is set.
func healthSoak(seed uint64, fault bool) soakConfig {
	return soakConfig{
		name: "hw",
		cluster: cluster.Config{
			Nodes: hwNodes, Fabric: cluster.Hetero, Profile: survProfile(),
			NIC: ibcl.DefaultNICConfig(), Seed: seed, Watchdog: true, Health: true,
		},
		rounds: hwRounds, size: hwMsgSize, pace: hwPace,
		// Traffic spans ~70 ms; the horizon leaves room for retransmit
		// stragglers and lets the rule series settle back to healthy.
		horizon:     120 * sim.Millisecond,
		sampleEvery: 5 * sim.Millisecond, sampleRing: 64,
		faults: func(c *cluster.Cluster, base sim.Time) {
			// Postmortem bundles carry the worst-offending flow spans,
			// which the engine reads from the cluster tracer.
			c.SetTracer(trace.New())
			if !fault {
				return
			}
			hf := c.Fabric.(*hetero.Fabric)
			// One seeded firmware crash: the watchdog-trip rule must
			// catch the kernel healing it.
			sched := seed ^ 0x9e3779b97f4a7c15
			node := int(splitmix64(&sched) % hwNodes)
			at := base + 25*sim.Millisecond + sim.Time(splitmix64(&sched)%uint64(8*sim.Millisecond))
			c.Nodes[node].NIC.CrashAt(at)
			// Bit flips on the Myrinet rail: crc-spike must see the drops.
			if f, ok := hf.Rail(0).(interface{ SetFault(fabric.Fault) }); ok {
				f.SetFault(fabric.RandomCorrupt(0.05))
			}
			// A gray window: the Myrinet rail runs 64x slow but alive, so
			// its windowed P99 wire time diverges from the mesh rail's.
			hf.RailSlow(0, base+50*sim.Millisecond, base+80*sim.Millisecond, 64)
		},
	}
}

// healthRun executes one phase.
func healthRun(seed uint64, fault bool) *hwResult {
	res := &hwResult{soakResult: healthSoak(seed, fault).run(), fired: make(map[string]int)}
	c := res.c
	eng := c.Health
	res.transitions = append(res.transitions, eng.Transitions()...)
	res.timeline = eng.TimelineText()
	res.top = eng.TopText()
	res.frames = eng.Frames()
	res.bundles = len(eng.Bundles())
	for _, t := range res.transitions {
		if t.Firing {
			res.fired[t.Rule]++
		}
	}
	if bs := eng.Bundles(); len(bs) > 0 {
		data, err := bs[0].Encode()
		if err != nil {
			panic(err)
		}
		res.bundle = data
	}
	res.samples = len(eng.Series("crc-spike")) + 1
	return res
}

// hwOnce runs both phases for one seed.
type hwOnce struct {
	clean  *hwResult
	faulty *hwResult
	digest uint64
}

func runHealthWatchOnce(seed uint64) *hwOnce {
	o := &hwOnce{clean: healthRun(seed, false), faulty: healthRun(seed, true)}
	h := fnv.New64a()
	for _, r := range []*hwResult{o.clean, o.faulty} {
		h.Write([]byte(r.timeline))
		h.Write(r.bundle)
		fmt.Fprintf(h, "|%d|%d|%v", r.delivered, r.resends, r.deadlocked)
	}
	o.digest = h.Sum64()
	return o
}

// HealthWatchSeeded runs the two-phase healthwatch experiment TWICE
// and checks the alert timelines and postmortem bundles are
// byte-identical.
func HealthWatchSeeded(seed uint64) *Report {
	r := newReport("healthwatch", fmt.Sprintf("Cluster health engine: clean silence, fault alerts, postmortems (seed %d)", seed))
	x, y, same := twice(func() *hwOnce { return runHealthWatchOnce(seed) },
		func(o *hwOnce) any {
			return [...]any{o.digest, o.clean.timeline, o.faulty.timeline, string(o.faulty.bundle)}
		})
	timelineOK := x.clean.timeline == y.clean.timeline && x.faulty.timeline == y.faulty.timeline
	bundleOK := string(x.faulty.bundle) == string(y.faulty.bundle) && len(x.faulty.bundle) > 0
	deterministic := same && len(x.faulty.bundle) > 0

	cl, fa := x.clean, x.faulty
	total := healthSoak(seed, false).total()
	cleanSilent := len(cl.transitions) == 0
	deadlocked := cl.deadlocked || fa.deadlocked
	mustFire := []string{"crc-spike", "watchdog-trip", "rail-divergence"}

	var sb strings.Builder
	fmt.Fprintf(&sb, "rig: %d nodes dual-rail, all-to-all, %d rounds x %dB = %d messages, 5ms samples\n\n",
		hwNodes, hwRounds, hwMsgSize, total)
	fmt.Fprintf(&sb, "clean phase: %d samples, %d/%d delivered, %d alert transitions (want 0)\n",
		cl.samples, cl.delivered, total, len(cl.transitions))
	if !cleanSilent {
		sb.WriteString(cl.timeline)
	}
	fmt.Fprintf(&sb, "\nfault phase: 1 firmware crash + 5%% bit flips (Myrinet rail) + 64x gray window\n")
	fmt.Fprintf(&sb, "%d/%d delivered, %d resends, %d transitions, %d postmortem bundles\n\n",
		fa.delivered, total, fa.resends, len(fa.transitions), fa.bundles)
	sb.WriteString(fa.timeline)
	for _, rule := range mustFire {
		fmt.Fprintf(&sb, "rule %-20s fired %d times (must fire)\n", rule, fa.fired[rule])
	}
	sb.WriteString("\nfinal bcltop frame (fault phase):\n")
	sb.WriteString(fa.top)
	if len(fa.bundle) > 0 {
		b, err := health.DecodeBundle(fa.bundle)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&sb, "\nfirst postmortem: %s kind=%s trigger=%s at %.3fms, %d bytes\n",
			b.Schema, b.Kind, b.Trigger.Rule, float64(b.AtNs)/float64(sim.Millisecond), len(fa.bundle))
	}
	fmt.Fprintf(&sb, "\ndigest: %016x (run 1) / %016x (run 2)\n", x.digest, y.digest)
	r.Text = sb.String()
	r.Snap = fa.snap

	r.metric("clean_delivered", float64(cl.delivered))
	r.metric("clean_samples", float64(cl.samples))
	r.metric("fault_delivered", float64(fa.delivered))
	r.metric("fault_resends", float64(fa.resends))
	r.metric("fault_transitions", float64(len(fa.transitions)))
	r.metric("fault_bundles", float64(fa.bundles))
	r.metric("bundle_bytes", float64(len(fa.bundle)))

	r.mustZero("clean_alerts", len(cl.transitions))
	r.must("fired_crc_spike", fa.fired["crc-spike"] > 0)
	r.must("fired_watchdog_trip", fa.fired["watchdog-trip"] > 0)
	r.must("fired_rail_divergence", fa.fired["rail-divergence"] > 0)
	r.must("all_delivered", cl.delivered == total && fa.delivered == total)
	r.must("timeline_deterministic", timelineOK)
	r.must("bundle_deterministic", bundleOK)
	r.must("deterministic", deterministic)
	r.mustNot("deadlocked", deadlocked)
	return r
}

// HealthWatchFrames replays the fault phase and returns its bcltop
// frames — the data behind `bclbench -watch`.
func HealthWatchFrames(seed uint64) []string {
	return healthRun(seed, true).frames
}

// HealthWatchBundle replays the fault phase and returns the first
// postmortem bundle's canonical bytes (nil if nothing fired) — the
// data behind `bcltrace -health`.
func HealthWatchBundle(seed uint64) []byte {
	return healthRun(seed, true).bundle
}
