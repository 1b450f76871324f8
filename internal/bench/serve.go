package bench

import (
	"fmt"
	"strings"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/fabric"
	"bcl/internal/hw"
	"bcl/internal/sched"
	"bcl/internal/sim"
	"bcl/internal/svc"
	"bcl/internal/workloads/openloop"
)

// This file is the service-tier experiment: the sharded RPC/KV store
// of internal/svc under an open-loop client swarm, gated end to end.
//
//   (a) baseline: Poisson arrivals with bounded-Pareto value sizes
//       from a swarm of simulated users multiplexed over per-driver
//       gang-scheduled connections — throughput, tail latency, cache
//       hit rate;
//   (b) interference: the same swarm next to a 32 KB stream hog on the
//       driver's NIC, strict-FIFO send arbitration vs QoS weights
//       (swarm 8 : hog 1) — the request P99.9 must strictly win under
//       QoS;
//   (c) chaos: duplicated packets, a shard link outage and a shard NIC
//       firmware crash (watchdog on, health engine attached) — zero
//       linearizable-read violations, zero half-applied transaction
//       pairs, caches coherent at quiesce;
//   (d) determinism: phase (c) twice with the same seed must produce
//       byte-identical samples, counters and stores.

// serveCfg is one service-tier scenario.
type serveCfg struct {
	shards      int
	driverNodes int
	users       int // per driver node
	seed        uint64
	arrivalMean sim.Time
	bursty      bool
	start       sim.Time
	window      sim.Time
	getFrac     float64
	txnFrac     float64
	pairs       int

	qos bool // NIC QoS WRR (else strict FIFO)
	hog bool // 32 KB stream hog on driver node 0

	watchdog bool
	health   bool
	dupEvery int      // duplicate every nth packet (0 = off)
	outNode  int      // shard node for the link outage (with outDur > 0)
	outAt    sim.Time // outage start
	outDur   sim.Time // outage length (0 = no outage)
	crashNode int     // shard node whose NIC firmware crashes
	crashAt  sim.Time // crash instant (0 = no crash)
}

// serveRes is everything a scenario run exposes to the report.
type serveRes struct {
	samples  []sim.Time
	p50, p99, p999 sim.Time
	reqsPerSec     float64

	issued, done, retrans uint64
	hits, misses          uint64
	violations, aborts    uint64
	committed, dedup      uint64

	atomicity bool // every txn pair byte-identical across shards
	coherent  bool // every cached entry matches its shard's version
	drained   bool
	hogDone   uint64
	sloAlerts int
	abortAlerts int
	digest    uint64
}

const serveBufSize = 2048

// runServe builds a fresh cluster, starts the shard servers, drives
// the swarm through the gang scheduler, and settles to quiesce.
func runServe(cfg serveCfg) *serveRes {
	nc := ibcl.DefaultNICConfig()
	nc.QoS = cfg.qos
	c := newCluster(cluster.Config{
		Nodes: cfg.shards + cfg.driverNodes, Profile: hw.DAWNING3000(),
		NIC: nc, Seed: cfg.seed, Watchdog: cfg.watchdog, Health: cfg.health,
	})
	if cfg.health {
		c.Obs.StartSampler(c.Env, 5*sim.Millisecond, 64)
	}
	sys := ibcl.NewSystem(c)
	ring := svc.NewRing(cfg.shards, 64)
	pa, pb := crossShardPairs(ring, cfg.pairs)

	if cfg.dupEvery > 0 {
		c.Fabric.SetFault(fabric.DuplicateEvery(cfg.dupEvery))
	}
	if cfg.outDur > 0 {
		if ld, ok := c.Fabric.(interface {
			LinkDown(node int, from, to sim.Time)
		}); ok {
			ld.LinkDown(cfg.outNode, cfg.outAt, cfg.outAt+cfg.outDur)
		}
	}
	if cfg.crashAt > 0 {
		c.Nodes[cfg.crashNode].NIC.CrashAt(cfg.crashAt)
	}

	// Shard servers: plain processes (they are the service itself, not
	// a scheduled tenant).
	servers := make([]*svc.Server, cfg.shards)
	var addrs []ibcl.Addr
	booted := false
	c.Env.Go("svc-setup", func(p *sim.Proc) {
		opts := ibcl.Options{SystemBuffers: 256, SystemBufSize: serveBufSize}
		var ports []*ibcl.Port
		for i := 0; i < cfg.shards; i++ {
			nd := c.Nodes[i]
			pt, err := sys.Open(p, nd, nd.Kernel.Spawn(), opts)
			if err != nil {
				panic(fmt.Sprintf("bench: serve shard open: %v", err))
			}
			ports = append(ports, pt)
			addrs = append(addrs, pt.Addr())
		}
		for i, pt := range ports {
			servers[i] = svc.NewServer(p, pt, serveBufSize, svc.ServerConfig{
				Index: i, Shards: addrs, Ring: ring,
				AuthSeed: 0xbc1, Seed: cfg.seed,
			})
			c.Env.Go(fmt.Sprintf("shard%d", i), servers[i].Run)
		}
		booted = true
	})
	for i := 0; i < 100 && !booted; i++ {
		c.Env.RunUntil(c.Env.Now() + sim.Millisecond)
	}
	if !booted {
		panic("bench: serve shards did not boot")
	}

	// The swarm rides the gang scheduler: one rank per driver node,
	// each multiplexing cfg.users simulated users over a single
	// QoS-weighted connection per shard.
	s := sched.New(c.Env, c.Size(), 4, false)
	c.Obs.RegisterCollector(s.Collect)
	drivers := make([]*svc.Driver, cfg.driverNodes)
	driverNodes := make([]int, cfg.driverNodes)
	for i := range driverNodes {
		driverNodes[i] = cfg.shards + i
	}
	s.Submit(sched.JobSpec{
		Name: "swarm", Ranks: cfg.driverNodes, Nodes: driverNodes, RanksPerNode: 1,
		EstRuntime: cfg.window + 100*sim.Millisecond, Priority: 1, QoSWeight: 8,
		Body: func(p *sim.Proc, ctx *sched.RankCtx) {
			nd := c.Nodes[ctx.Node]
			pt, err := sys.Open(p, nd, nd.Kernel.Spawn(), ibcl.Options{
				SystemBuffers: 256, SystemBufSize: serveBufSize,
				Label: "swarm", QoSWeight: ctx.Job.Spec.QoSWeight,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: serve driver open: %v", err))
			}
			dseed := cfg.seed ^ uint64(ctx.Rank+1)*0x9e3779b97f4a7c15
			var arrivals svc.Arrivals
			if cfg.bursty {
				arrivals = openloop.NewBursty(dseed, cfg.arrivalMean/2, cfg.arrivalMean/8, 400, 100)
			} else {
				arrivals = openloop.NewPoisson(dseed, cfg.arrivalMean)
			}
			d := svc.NewDriver(p, pt, serveBufSize, svc.DriverConfig{
				Shards: addrs, Ring: ring,
				Users: cfg.users, UserName: fmt.Sprintf("swarm%d", ctx.Rank),
				AuthSeed: 0xbc1, Seed: dseed,
				Arrivals: arrivals,
				Sizes:    openloop.NewBoundedPareto(dseed^0x5e, 16, 1024, 1.3),
				Keys:     96, GetFrac: cfg.getFrac, TxnFrac: cfg.txnFrac,
				PairA: pa, PairB: pb,
				Start: cfg.start, Duration: cfg.window,
			})
			drivers[ctx.Rank] = d
			d.Run(p)
		},
	})

	var hogSent uint64
	if cfg.hog {
		const hogMsgs, hogSize = 200, 32 << 10
		// Placement sorts the node list, so the rank on the driver node
		// (the higher id) is the sender: the stream must contend with
		// swarm requests at the driver NIC's send arbitration.
		var sinkPort *ibcl.Port
		s.Submit(sched.JobSpec{
			Name: "hog", Ranks: 2, Nodes: []int{0, cfg.shards}, RanksPerNode: 1,
			EstRuntime: cfg.window, QoSWeight: 1,
			Body: func(p *sim.Proc, ctx *sched.RankCtx) {
				nd := c.Nodes[ctx.Node]
				pt, err := sys.Open(p, nd, nd.Kernel.Spawn(), ibcl.Options{
					SystemBuffers: 16, Label: "hog", QoSWeight: 1,
				})
				if err != nil {
					panic(fmt.Sprintf("bench: serve hog open: %v", err))
				}
				if ctx.Node != cfg.shards {
					va := pt.Process().Space.Alloc(hogSize)
					for i := 0; i < hogMsgs; i++ {
						if err := pt.PostRecv(p, pt.CreateChannel(), va, hogSize); err != nil {
							panic(err)
						}
					}
					sinkPort = pt
					for i := 0; i < hogMsgs; i++ {
						pt.WaitRecv(p)
					}
					return
				}
				for sinkPort == nil {
					p.Sleep(10 * sim.Microsecond)
				}
				// Stream through the measurement window so every swarm
				// request contends with a bulk transfer on its NIC.
				if wait := cfg.start - p.Now(); wait > 0 {
					p.Sleep(wait)
				}
				va := pt.Process().Space.Alloc(hogSize)
				for i := 0; i < hogMsgs; i++ {
					pt.Send(p, sinkPort.Addr(), i+1, va, hogSize, 0)
				}
				for i := 0; i < hogMsgs; i++ {
					pt.WaitSend(p)
					hogSent++
				}
			},
		})
	}

	// Run until the swarm drains, then settle so trailing
	// invalidations and 2PC acks land (quiesce).
	horizon := cfg.start + cfg.window + 2*sim.Second
	for c.Env.Now() < horizon {
		c.Env.RunUntil(c.Env.Now() + sim.Millisecond)
		if c.Env.Now() < cfg.start+cfg.window {
			continue
		}
		allDrained := true
		for _, d := range drivers {
			if d == nil || d.Generating() || !d.Drained() {
				allDrained = false
				break
			}
		}
		if allDrained {
			break
		}
	}
	c.Env.RunUntil(c.Env.Now() + 30*sim.Millisecond)

	res := &serveRes{atomicity: true, coherent: true, drained: true}
	for _, d := range drivers {
		if d == nil {
			res.drained = false
			continue
		}
		if d.Generating() || !d.Drained() {
			res.drained = false
		}
		st := d.Stats()
		res.issued += st.Issued
		res.done += st.Done
		res.retrans += st.Retransmits
		res.hits += st.CacheHits
		res.misses += st.Misses
		res.violations += st.Violations
		res.aborts += st.TxnAborts
		res.samples = append(res.samples, d.Samples()...)
		// Coherence at quiesce: every cached version must equal the
		// owning shard's committed version.
		for key, ver := range d.CacheSnapshot() {
			if _, want := servers[ring.Shard(key)].Peek(key); ver != want {
				res.coherent = false
			}
		}
	}
	for _, sv := range servers {
		committed, _, _ := sv.Stats()
		res.committed += committed
		_, _, _, dedup := serveServerDedup(sv)
		res.dedup += dedup
	}
	// Atomicity at quiesce: both halves of every transaction pair hold
	// identical bytes (or neither exists).
	for i := range pa {
		va, vera := servers[ring.Shard(pa[i])].Peek(pa[i])
		vb, verb := servers[ring.Shard(pb[i])].Peek(pb[i])
		if (vera == 0) != (verb == 0) || string(va) != string(vb) {
			res.atomicity = false
		}
	}
	res.p50 = quantileNS(res.samples, 0.50)
	res.p99 = quantileNS(res.samples, 0.99)
	res.p999 = quantileNS(res.samples, 0.999)
	if cfg.window > 0 {
		res.reqsPerSec = float64(res.done) / (float64(cfg.window) / float64(sim.Second))
	}
	res.hogDone = hogSent
	if c.Health != nil {
		res.sloAlerts = c.Health.FiredCount("svc-slo-burn")
		res.abortAlerts = c.Health.FiredCount("txn-abort-rate")
	}
	res.digest = serveDigest(res, servers, pa, pb, ring)
	return res
}

// serveServerDedup pulls the shard's counters through its stats
// snapshot (committed, aborted, invs, dedup replays).
func serveServerDedup(sv *svc.Server) (committed, aborted, invs, dedup uint64) {
	committed, aborted, invs = sv.Stats()
	dedup = sv.DedupReplays()
	return
}

// crossShardPairs builds transaction key pairs whose halves live on
// different shards, so every transaction exercises 2PC.
func crossShardPairs(ring *svc.Ring, n int) (pa, pb []string) {
	for i := 0; len(pa) < n; i++ {
		a := fmt.Sprintf("pa%04d", i)
		b := fmt.Sprintf("pb%04d", i)
		if ring.Shard(a) != ring.Shard(b) {
			pa = append(pa, a)
			pb = append(pb, b)
		}
	}
	return pa, pb
}

// serveDigest fingerprints a run: every latency sample in completion
// order, the aggregate counters, and the committed bytes of every
// transaction pair.
func serveDigest(res *serveRes, servers []*svc.Server, pa, pb []string, ring *svc.Ring) uint64 {
	h := uint64(1469598103934665603)
	mixIn := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, s := range res.samples {
		mixIn(uint64(s))
	}
	mixIn(res.issued)
	mixIn(res.done)
	mixIn(res.hits)
	mixIn(res.misses)
	mixIn(res.committed)
	mixIn(res.aborts)
	for i := range pa {
		for _, key := range []string{pa[i], pb[i]} {
			val, ver := servers[ring.Shard(key)].Peek(key)
			mixIn(ver)
			for _, b := range val {
				mixIn(uint64(b))
			}
		}
	}
	return h
}

// serveSchedule derives the chaos phase's fault schedule from the
// seed: which nth packet duplicates, when the shard link goes dark
// and for how long, and when the other shard's firmware dies.
func serveSchedule(seed uint64) (dup int, outAt, outDur, crashAt sim.Time) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	dup = 3 + int(next()%5)                                   // every 3rd..7th packet
	outAt = 8*sim.Millisecond + sim.Time(next()%6)*sim.Millisecond  // 8..13 ms
	outDur = 3*sim.Millisecond + sim.Time(next()%3)*sim.Millisecond // 3..5 ms
	crashAt = 16*sim.Millisecond + sim.Time(next()%5)*sim.Millisecond
	return
}

// ServeSeeded is the gated service-tier experiment at an explicit
// fault-schedule seed.
func ServeSeeded(seed uint64) *Report {
	r := newReport("serve", "Service tier: sharded RPC/KV, transactions, open-loop swarm")

	base := serveCfg{
		shards: 3, driverNodes: 2, users: 12000, seed: seed,
		arrivalMean: 60 * sim.Microsecond,
		start:       10 * sim.Millisecond, window: 25 * sim.Millisecond,
		getFrac: 0.6, txnFrac: 0.1, pairs: 12,
	}
	baseline := runServe(base)

	// Interference: one driver node, faster arrivals, a 32 KB stream
	// hog sharing its NIC. FIFO vs QoS WRR (weights 8:1).
	intf := serveCfg{
		shards: 2, driverNodes: 1, users: 8000, seed: seed,
		arrivalMean: 50 * sim.Microsecond,
		start:       10 * sim.Millisecond, window: 20 * sim.Millisecond,
		getFrac: 0.6, txnFrac: 0, pairs: 2,
		hog: true,
	}
	fifo := runServe(intf)
	intf.qos = true
	qos := runServe(intf)

	// Chaos: duplicates + a shard link outage + a shard firmware crash
	// under the watchdog, health engine attached. Twice, for the
	// determinism gate.
	dup, outAt, outDur, crashAt := serveSchedule(seed)
	chaosCfg := serveCfg{
		shards: 3, driverNodes: 2, users: 6000, seed: seed,
		arrivalMean: 160 * sim.Microsecond, bursty: true,
		start:       10 * sim.Millisecond, window: 25 * sim.Millisecond,
		getFrac: 0.5, txnFrac: 0.2, pairs: 12,
		watchdog: true, health: true,
		dupEvery: dup,
		outNode:  1, outAt: outAt, outDur: outDur,
		crashNode: 2, crashAt: crashAt,
	}
	chaos := runServe(chaosCfg)
	chaos2 := runServe(chaosCfg)
	deterministic := chaos.digest == chaos2.digest &&
		chaos.p999 == chaos2.p999 && chaos.committed == chaos2.committed

	okAll := baseline.atomicity && chaos.atomicity && chaos2.atomicity
	linAll := baseline.violations == 0 && fifo.violations == 0 && qos.violations == 0 &&
		chaos.violations == 0 && chaos2.violations == 0
	cohAll := baseline.coherent && fifo.coherent && qos.coherent && chaos.coherent && chaos2.coherent
	drainedAll := baseline.drained && fifo.drained && qos.drained && chaos.drained && chaos2.drained

	var b strings.Builder
	fmt.Fprintf(&b, "baseline: %d shards, %d driver nodes x %d users, Poisson mean %.0f us, pareto 16..1024 B\n",
		base.shards, base.driverNodes, base.users, us(base.arrivalMean))
	fmt.Fprintf(&b, "  %d reqs (%.0f reqs/s)  p50 %8.2f us  p99 %8.2f us  p99.9 %8.2f us\n",
		baseline.done, baseline.reqsPerSec, us(baseline.p50), us(baseline.p99), us(baseline.p999))
	fmt.Fprintf(&b, "  cache hit rate %.1f%%  txns committed %d  aborted %d\n",
		100*float64(baseline.hits)/float64(baseline.hits+baseline.misses+1),
		baseline.committed, baseline.aborts)
	fmt.Fprintf(&b, "\ninterference: swarm next to a 200 x 32KB stream hog on its NIC\n")
	fmt.Fprintf(&b, "  %-18s p99 %8.2f us   p99.9 %8.2f us\n", "strict FIFO:", us(fifo.p99), us(fifo.p999))
	fmt.Fprintf(&b, "  %-18s p99 %8.2f us   p99.9 %8.2f us   (weights 8:1)\n", "QoS WRR:", us(qos.p99), us(qos.p999))
	fmt.Fprintf(&b, "\nchaos (seed %d): dup every %d pkts, shard1 link dark %.0f-%.0fms, shard2 firmware crash @%.0fms\n",
		seed, dup, us(outAt)/1000, us(outAt+outDur)/1000, us(crashAt)/1000)
	fmt.Fprintf(&b, "  %d reqs  p99.9 %8.2f us  retransmits %d  dedup replays %d\n",
		chaos.done, us(chaos.p999), chaos.retrans, chaos.dedup)
	fmt.Fprintf(&b, "  txns committed %d aborted %d; slo-burn alerts %d, txn-abort alerts %d\n",
		chaos.committed, chaos.aborts, chaos.sloAlerts, chaos.abortAlerts)
	fmt.Fprintf(&b, "\natomicity (no half-applied pair): %v\n", okAll)
	fmt.Fprintf(&b, "linearizable reads (0 monotonic/RYW violations): %v\n", linAll)
	fmt.Fprintf(&b, "coherent caches at quiesce: %v\n", cohAll)
	fmt.Fprintf(&b, "all requests answered (open loop drained): %v\n", drainedAll)
	fmt.Fprintf(&b, "deterministic across same-seed double run: %v\n", deterministic)
	r.Text = b.String()

	r.metric("reqs", float64(baseline.done))
	r.metric("reqs_per_sec", baseline.reqsPerSec)
	r.metric("p50_us", us(baseline.p50))
	r.metric("p99_us", us(baseline.p99))
	r.metric("p999_us", us(baseline.p999))
	r.metric("cache_hit_pct", 100*float64(baseline.hits)/float64(baseline.hits+baseline.misses+1))
	r.metric("txn_committed", float64(baseline.committed))
	r.metric("p999_fifo_us", us(fifo.p999))
	r.metric("p999_qos_us", us(qos.p999))
	r.metric("qos_beats_fifo", b2f(qos.p999 < fifo.p999))
	r.metric("chaos_reqs", float64(chaos.done))
	r.metric("chaos_p999_us", us(chaos.p999))
	r.metric("chaos_retransmits", float64(chaos.retrans))
	r.metric("chaos_txn_committed", float64(chaos.committed))
	r.metric("chaos_txn_aborted", float64(chaos.aborts))
	r.metric("slo_alerts", float64(chaos.sloAlerts))
	r.metric("atomicity_ok", b2f(okAll))
	r.metric("linearizable_ok", b2f(linAll))
	r.metric("coherent_caches", b2f(cohAll))
	r.metric("swarm_drained", b2f(drainedAll))
	r.metric("dedup_nonzero", b2f(chaos.dedup > 0))
	r.metric("retrans_nonzero", b2f(chaos.retrans > 0))
	r.metric("txn_commits_nonzero", b2f(chaos.committed > 0))
	r.metric("deterministic", b2f(deterministic))
	return r
}
