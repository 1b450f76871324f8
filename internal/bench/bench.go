// Package bench is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation section (Table 1-3, Figures 5-9)
// plus the ablations called out in DESIGN.md, as formatted reports
// with machine-readable key metrics. Both the root testing.B
// benchmarks and cmd/bclbench drive it.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"bcl/internal/amii"
	ibcl "bcl/internal/bcl"
	"bcl/internal/bip"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/hw"
	"bcl/internal/klc"
	"bcl/internal/mem"
	"bcl/internal/mpi"
	"bcl/internal/node"
	"bcl/internal/obs"
	"bcl/internal/obs/prof"
	"bcl/internal/pvm"
	"bcl/internal/sim"
	"bcl/internal/ulc"
)

// Report is one reproduced experiment.
type Report struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64

	// Snap is the merged registry snapshot over every cluster the
	// experiment built (captured by All/ByID when the experiment did not
	// set one itself). Summary is its one-line digest.
	Snap    *obs.Snapshot
	Summary string

	// Flight is the concatenated flight-recorder contents of every
	// cluster the experiment built — the evidence a gate-failure
	// postmortem bundle dumps.
	Flight []obs.Event

	// Attribution and LogP carry the structured profiler outputs of the
	// profile/logp experiments (nil elsewhere); the benchmark artifact
	// embeds them.
	Attribution *prof.Profile
	LogP        *prof.LogGP

	// invariants are the report's declared correctness conditions, in
	// declaration order.
	invariants []invariant
}

// invariant is one declared correctness condition: the metric it
// recorded and whether it holds.
type invariant struct {
	name string
	ok   bool
}

// String renders the report, closed by its invariant verdict when it
// declares any: a count when all hold, otherwise the uniform failure
// banner naming each failing invariant, then the flight-recorder tail.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	if bad := r.Failed(); len(bad) > 0 {
		s += fmt.Sprintf("\n*** %s FAILED: %s ***\n\n%s", strings.ToUpper(r.ID),
			strings.Join(bad, ", "), obs.EventsText(r.Flight, 16, uint64(len(r.Flight))))
	} else if len(r.invariants) > 0 {
		s += fmt.Sprintf("\ninvariants: %d/%d hold\n", len(r.invariants), len(r.invariants))
	}
	return s
}

// metric records a key number.
func (r *Report) metric(k string, v float64) { r.Metrics[k] = v }

// invariant declares a correctness condition: v is recorded as metric
// name, Check compares it exactly against the baseline, and the report
// fails (banner, non-zero bclbench exit) unless ok.
func (r *Report) invariant(name string, v float64, ok bool) {
	r.metric(name, v)
	r.invariants = append(r.invariants, invariant{name: name, ok: ok})
}

// must declares a boolean invariant, recorded as 1 when it holds.
func (r *Report) must(name string, ok bool) { r.invariant(name, b2f(ok), ok) }

// mustNot declares a failure flag, recorded as 1 when the failure
// happened.
func (r *Report) mustNot(name string, failed bool) { r.invariant(name, b2f(failed), !failed) }

// mustZero declares a count of failures, which must be zero.
func (r *Report) mustZero(name string, n int) { r.invariant(name, float64(n), n == 0) }

// Failed lists the declared invariants that do not hold.
func (r *Report) Failed() []string {
	var bad []string
	for _, inv := range r.invariants {
		if !inv.ok {
			bad = append(bad, inv.name)
		}
	}
	return bad
}

// ExitCode is bclbench's exit status for the reports it ran: 1 when
// any declared invariant failed, 0 otherwise.
func ExitCode(reports ...*Report) int {
	for _, r := range reports {
		if len(r.Failed()) > 0 {
			return 1
		}
	}
	return 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: make(map[string]float64)}
}

// experiment is one registry entry. Exactly one constructor is set:
// seeded for experiments whose fault/traffic schedule honors -seed,
// fn for the rest.
type experiment struct {
	id      string
	aliases []string
	title   string
	fn      func() *Report
	seeded  func(seed uint64) *Report
}

// experiments maps every experiment id (and alias) to its constructor,
// in paper order.
var experiments = []experiment{
	{id: "table1", title: "Comparison of three communication architectures", fn: Table1},
	{id: "overheads", title: "Processor overheads (send/completion/receive)", fn: Overheads},
	{id: "fig5", aliases: []string{"figure5"}, title: "Transmission timeline for a BCL message", fn: Figure5},
	{id: "fig6", aliases: []string{"figure6"}, title: "Reception timeline for a BCL message", fn: Figure6},
	{id: "fig7", aliases: []string{"figure7"}, title: "One-way latency timeline, 0-length message", fn: Figure7},
	{id: "fig8", aliases: []string{"figure8"}, title: "Latency vs message size", fn: Figure8},
	{id: "fig9", aliases: []string{"figure9"}, title: "Bandwidth vs message size", fn: Figure9},
	{id: "table2", title: "Comparison of communication protocols", fn: Table2},
	{id: "table3", title: "Performance of BCL and MPI/PVM over BCL", fn: Table3},
	{id: "fabrics", title: "BCL over Myrinet, nwrc mesh, and the composite", fn: Fabrics},
	{id: "scale", title: "Collective scaling to the full 70-node machine", fn: Scale},
	{id: "pingpong", title: "BCL ping-pong with cluster-wide metrics registry", fn: PingPong},
	{id: "flowtrace", title: "Causal flow trace of one message (forced retransmission)", fn: FlowTrace},
	{id: "ablation-pio", title: "PIO cost sweep", fn: AblationPIO},
	{id: "ablation-cpu", title: "Host CPU speed sweep", fn: AblationCPU},
	{id: "ablation-reliability", title: "Reliable vs raw firmware", fn: AblationReliability},
	{id: "ablation-kernelpath", title: "Kernel path vs bandwidth", fn: AblationKernelPath},
	{id: "ablation-pipeline", title: "Intra-node pipelining", fn: AblationPipeline},
	{id: "ablation-window", title: "Go-back-N window sweep", fn: AblationWindow},
	{id: "ablation-intrapath", title: "Intra-node strategies: loopback vs shm vs direct", fn: AblationIntraPath},
	{id: "chaos", title: "Deterministic chaos soak", seeded: ChaosSeeded},
	{id: "survival", title: "Survivable NIC gauntlet: crash recovery, corruption, gray failures", seeded: SurvivalSeeded},
	{id: "collectives", title: "NIC-offloaded collectives vs host algorithms", seeded: CollectivesSeeded},
	{id: "collflow", title: "Causal flow trace of one offloaded broadcast + barrier", fn: CollFlow},
	{id: "crashflow", title: "Causal flow trace of one message across a firmware crash + recovery", fn: CrashFlow},
	{id: "profile", title: "Virtual-time attribution of one eager send", fn: Profile},
	{id: "logp", title: "LogP/LogGP parameters extracted from profiler spans", fn: LogP},
	{id: "multitenant", aliases: []string{"mt"}, title: "Multi-tenant cluster: scheduler, endpoint isolation, QoS arbitration", fn: Multitenant},
	{id: "healthwatch", aliases: []string{"health"}, title: "Cluster health engine: clean silence, fault alerts, postmortem bundles", seeded: HealthWatchSeeded},
	{id: "serve", aliases: []string{"svc"}, title: "Service tier: sharded RPC/KV, transactions, open-loop swarm", seeded: ServeSeeded},
	{id: "reqobs", aliases: []string{"reqtrace"}, title: "Request-level observability: tail-sampled traces, exemplars, heavy hitters, slow log", seeded: ReqObsSeeded},
	{id: "rpcflow", title: "Causal flow trace of one cross-shard transaction (2PC over BCL)", fn: RPCFlow},
}

// Info describes one registered experiment for listings.
type Info struct {
	ID      string
	Aliases []string
	Title   string
	Seeded  bool // honors -seed (fault/traffic schedule variants)
	Gated   bool // compared against a committed baseline by -check
}

// List returns every registered experiment in paper order.
func List() []Info {
	gated := make(map[string]bool, len(GatedExperiments))
	for _, g := range GatedExperiments {
		gated[g.ID] = true
	}
	var out []Info
	for _, e := range experiments {
		out = append(out, Info{
			ID:      e.id,
			Aliases: e.aliases,
			Title:   e.title,
			Seeded:  e.seeded != nil,
			Gated:   gated[e.id],
		})
	}
	return out
}

// lookup resolves an experiment id or alias (nil if unknown).
func lookup(id string) *experiment {
	id = strings.ToLower(id)
	for i := range experiments {
		e := &experiments[i]
		if e.id == id {
			return e
		}
		for _, a := range e.aliases {
			if a == id {
				return e
			}
		}
	}
	return nil
}

// All runs every experiment in paper order, seeded ones at seed 1.
func All() []*Report {
	var out []*Report
	for _, e := range experiments {
		out = append(out, ByID(e.id))
	}
	return out
}

// ByID returns the named experiment (nil if unknown), seeded ones at
// seed 1.
func ByID(id string) *Report { return ByIDSeeded(id, 1) }

// ByIDSeeded runs an experiment by id or alias with an explicit
// fault/traffic-schedule seed where the experiment takes one (nil if
// unknown). It goes through the harness like every other run, so the
// report carries its snapshot and one-line summary — the digest, prose
// and artifact all come from the same capture.
func ByIDSeeded(id string, seed uint64) *Report {
	e := lookup(id)
	if e == nil {
		return nil
	}
	if e.seeded != nil {
		return runExperiment(func() *Report { return e.seeded(seed) })
	}
	return runExperiment(e.fn)
}

// IDs lists the experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// built tracks every cluster an experiment constructs, so the harness
// can merge their registries into the report's snapshot. The bench
// package runs experiments sequentially (like the simulator, it is
// single-threaded by design).
var built []*cluster.Cluster

// newCluster is cluster.New plus harness tracking.
func newCluster(cfg cluster.Config) *cluster.Cluster {
	c := cluster.New(cfg)
	built = append(built, c)
	return c
}

// runExperiment runs one constructor and captures the merged metrics
// snapshot of every cluster it built.
func runExperiment(fn func() *Report) *Report {
	built = nil
	r := fn()
	capture(r)
	built = nil
	return r
}

// capture merges the tracked clusters' registries into the report (if
// the experiment did not attach a snapshot itself) and derives the
// one-line summary.
func capture(r *Report) {
	if r == nil {
		return
	}
	if r.Snap == nil {
		snaps := make([]*obs.Snapshot, 0, len(built))
		for _, c := range built {
			snaps = append(snaps, c.Obs.Snapshot(c.Env.Now()))
		}
		r.Snap = obs.Merge(snaps...)
	}
	if r.Flight == nil {
		for _, c := range built {
			r.Flight = append(r.Flight, c.Obs.Rec.Events()...)
		}
	}
	if r.Summary == "" {
		r.Summary = summaryLine(r.Snap)
	}
}

// summaryLine renders the one-line metrics digest printed after every
// benchmark: message and retransmit totals plus latency quantiles from
// the merged end-to-end histogram.
func summaryLine(s *obs.Snapshot) string {
	if s == nil {
		return "metrics: (none)"
	}
	h := s.MergedHist("nic", "msg_latency_ns")
	line := fmt.Sprintf("metrics: msgs=%d retransmits=%d",
		s.SumCounter("nic", "msgs_sent"), s.SumCounter("nic", "retransmits"))
	if h.Count > 0 {
		line += fmt.Sprintf(" p50=%.1fus p99=%.1fus p999=%.1fus",
			float64(h.P50())/1000, float64(h.P99())/1000, float64(h.P999())/1000)
	}
	return line
}

func us(t sim.Time) float64 { return float64(t) / 1000 }

// ------------------------------------------------------------ rigs

// openAll opens one endpoint per listed node from a single setup
// process, each for a freshly spawned user process, runs the clock to
// settle and panics unless every open succeeded by then.
func openAll[T any](c *cluster.Cluster, settle sim.Time, nodes []int,
	open func(p *sim.Proc, nd *node.Node) (T, error)) []T {
	eps := make([]T, len(nodes))
	opened := 0
	c.Env.Go("setup", func(p *sim.Proc) {
		for i, n := range nodes {
			var err error
			if eps[i], err = open(p, c.Nodes[n]); err != nil {
				return
			}
			opened++
		}
	})
	c.Env.RunUntil(settle)
	if opened != len(nodes) {
		panic("bench: rig setup failed")
	}
	return eps
}

// openBCL opens one BCL port with the given options per listed node.
func openBCL(c *cluster.Cluster, settle sim.Time, opts ibcl.Options, nodes ...int) []*ibcl.Port {
	sys := ibcl.NewSystem(c)
	return openAll(c, settle, nodes, func(p *sim.Proc, nd *node.Node) (*ibcl.Port, error) {
		return sys.Open(p, nd, nd.Kernel.Spawn(), opts)
	})
}

// seq lists nodes 0..n-1.
func seq(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// peerNode is the second endpoint's node of a 2-port rig: node 1, or
// node 0 itself for the intra-node path.
func peerNode(intra bool) int {
	if intra {
		return 0
	}
	return 1
}

// ------------------------------------------------------ BCL measurers

// bclRig is a 2-port BCL fixture.
type bclRig struct {
	c    *cluster.Cluster
	a, b *ibcl.Port
}

// openRig opens ports a (node 0) and b (node nodeB) on c.
func openRig(c *cluster.Cluster, nodeB int) *bclRig {
	pts := openBCL(c, 20*sim.Millisecond, ibcl.Options{SystemBuffers: 64}, 0, nodeB)
	return &bclRig{c: c, a: pts[0], b: pts[1]}
}

// newBCLRig is the standard 2-node rig; intra puts both ports on node 0.
func newBCLRig(prof *hw.Profile, intra bool) *bclRig {
	return openRig(newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: ibcl.DefaultNICConfig()}), peerNode(intra))
}

// warmLatency measures warm one-way latency a -> b for size bytes on a
// normal channel with preposted (and re-posted) buffers.
func (r *bclRig) warmLatency(size int) sim.Time {
	const iters = 4
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	ch := r.b.CreateChannel()
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	r.c.Env.Go("recv", func(p *sim.Proc) {
		rva := r.b.Process().Space.Alloc(bufN)
		r.b.PostRecv(p, ch, rva, bufN)
		for i := 0; i < iters; i++ {
			r.b.WaitRecv(p)
			warm = p.Now() - sendAt[i]
			if i < iters-1 {
				r.b.PostRecv(p, ch, rva, bufN)
			}
		}
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		p.Sleep(100 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			r.a.Send(p, r.b.Addr(), ch, va, size, 0)
			r.a.WaitSend(p)
			p.Sleep(300 * sim.Microsecond)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return warm
}

// stream measures a -> b streaming bandwidth in MB/s at the given
// message size.
func (r *bclRig) stream(size, msgs int) float64 {
	var start, end sim.Time
	ready := false
	r.c.Env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			va := r.b.Process().Space.Alloc(size)
			r.b.PostRecv(p, i+1, va, size)
		}
		ready = true
		// The first message is warm-up: the clock starts when it has
		// fully arrived, so pin-table misses stay off the measurement.
		r.b.WaitRecv(p)
		start = p.Now()
		for i := 1; i < msgs; i++ {
			r.b.WaitRecv(p)
		}
		end = p.Now()
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(size)
		for !ready {
			p.Sleep(50 * sim.Microsecond)
		}
		for i := 0; i < msgs; i++ {
			r.a.Send(p, r.b.Addr(), i+1, va, size, 0)
		}
		for i := 0; i < msgs; i++ {
			r.a.WaitSend(p)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + 10*sim.Second)
	return mbps((msgs-1)*size, end-start)
}

func mbps(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (float64(d) / float64(sim.Second)) / 1e6
}

// bclPingPong measures RTT/2 with receive re-posting inside the loop —
// the Figure 7 methodology that exposes the full semi-user-level
// kernel cost (send trap + re-posting trap).
func bclPingPong(prof *hw.Profile, size int) sim.Time {
	r := newBCLRig(prof, false)
	const iters = 6
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	chA := r.a.CreateChannel()
	chB := r.b.CreateChannel()
	var rtt sim.Time
	r.c.Env.Go("a", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		r.a.PostRecv(p, chA, va, bufN)
		p.Sleep(200 * sim.Microsecond)
		// Warm-up round.
		r.a.Send(p, r.b.Addr(), chB, va, size, 0)
		r.a.WaitRecv(p)
		r.a.PostRecv(p, chA, va, bufN)
		start := p.Now()
		for i := 0; i < iters; i++ {
			r.a.Send(p, r.b.Addr(), chB, va, size, 0)
			r.a.WaitRecv(p)
			r.a.PostRecv(p, chA, va, bufN)
		}
		rtt = (p.Now() - start) / iters
	})
	r.c.Env.Go("b", func(p *sim.Proc) {
		va := r.b.Process().Space.Alloc(bufN)
		r.b.PostRecv(p, chB, va, bufN)
		for i := 0; i < iters+1; i++ {
			r.b.WaitRecv(p)
			r.b.PostRecv(p, chB, va, bufN)
			r.b.Send(p, r.a.Addr(), chA, va, size, 0)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return rtt / 2
}

// ------------------------------------------------------ ULC measurers

type ulcRig struct {
	c    *cluster.Cluster
	a, b *ulc.Port
}

// ulcConfig is a 2-node cluster running the user-level firmware.
func ulcConfig(prof *hw.Profile) cluster.Config {
	return cluster.Config{Nodes: 2, Profile: prof, NIC: ulc.NICConfig()}
}

func newULCRig(conf cluster.Config) *ulcRig {
	c := newCluster(conf)
	sys := ulc.NewSystem(c)
	pts := openAll(c, 20*sim.Millisecond, []int{0, 1}, func(p *sim.Proc, nd *node.Node) (*ulc.Port, error) {
		return sys.Open(p, nd, nd.Kernel.Spawn(), 64)
	})
	return &ulcRig{c: c, a: pts[0], b: pts[1]}
}

// ulcPingPong mirrors bclPingPong on the user-level library.
func ulcPingPong(prof *hw.Profile, size int) sim.Time {
	r := newULCRig(ulcConfig(prof))
	const iters = 6
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	chA := r.a.CreateChannel()
	chB := r.b.CreateChannel()
	var rtt sim.Time
	r.c.Env.Go("a", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		r.a.Register(p, va, bufN)
		r.a.PostRecv(p, chA, va, bufN)
		p.Sleep(200 * sim.Microsecond)
		r.a.Send(p, r.b.Addr(), chB, va, size, 0)
		r.a.WaitRecv(p)
		r.a.PostRecv(p, chA, va, bufN)
		start := p.Now()
		for i := 0; i < iters; i++ {
			r.a.Send(p, r.b.Addr(), chB, va, size, 0)
			r.a.WaitRecv(p)
			r.a.PostRecv(p, chA, va, bufN)
		}
		rtt = (p.Now() - start) / iters
	})
	r.c.Env.Go("b", func(p *sim.Proc) {
		va := r.b.Process().Space.Alloc(bufN)
		r.b.Register(p, va, bufN)
		r.b.PostRecv(p, chB, va, bufN)
		for i := 0; i < iters+1; i++ {
			r.b.WaitRecv(p)
			r.b.PostRecv(p, chB, va, bufN)
			r.b.Send(p, r.a.Addr(), chA, va, size, 0)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return rtt / 2
}

// ulcLatency is the warm one-way measurement on the user-level port.
func ulcLatency(conf cluster.Config, size int) sim.Time {
	r := newULCRig(conf)
	const iters = 4
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	ch := r.b.CreateChannel()
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	r.c.Env.Go("recv", func(p *sim.Proc) {
		rva := r.b.Process().Space.Alloc(bufN)
		r.b.Register(p, rva, bufN)
		r.b.PostRecv(p, ch, rva, bufN)
		for i := 0; i < iters; i++ {
			r.b.WaitRecv(p)
			warm = p.Now() - sendAt[i]
			if i < iters-1 {
				r.b.PostRecv(p, ch, rva, bufN)
			}
		}
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		r.a.Register(p, va, bufN)
		p.Sleep(100 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			r.a.Send(p, r.b.Addr(), ch, va, size, 0)
			r.a.WaitSend(p)
			p.Sleep(300 * sim.Microsecond)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return warm
}

// ulcBandwidth measures user-level streaming bandwidth.
func ulcBandwidth(conf cluster.Config, size, msgs int) float64 {
	r := newULCRig(conf)
	var start, end sim.Time
	ready := false
	r.c.Env.Go("recv", func(p *sim.Proc) {
		va := r.b.Process().Space.Alloc(size)
		r.b.Register(p, va, size)
		for i := 0; i < msgs; i++ {
			r.b.PostRecv(p, i+1, va, size)
		}
		ready = true
		r.b.WaitRecv(p) // warm-up message
		start = p.Now()
		for i := 1; i < msgs; i++ {
			r.b.WaitRecv(p)
		}
		end = p.Now()
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(size)
		r.a.Register(p, va, size)
		for !ready {
			p.Sleep(50 * sim.Microsecond)
		}
		for i := 0; i < msgs; i++ {
			r.a.Send(p, r.b.Addr(), i+1, va, size, 0)
		}
		for i := 0; i < msgs; i++ {
			r.a.WaitSend(p)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + 10*sim.Second)
	return mbps((msgs-1)*size, end-start)
}

// ------------------------------------------------------ KLC measurers

// klcPair opens a kernel-level socket on each node of a 2-node cluster.
func klcPair(prof *hw.Profile) (c *cluster.Cluster, a, b *klc.Socket) {
	c = newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: klc.NICConfig()})
	sys := klc.NewSystem(c)
	s := openAll(c, 20*sim.Millisecond, []int{0, 1}, func(p *sim.Proc, nd *node.Node) (*klc.Socket, error) {
		return sys.Open(p, nd, nd.Kernel.Spawn())
	})
	return c, s[0], s[1]
}

func klcLatency(prof *hw.Profile, size int) sim.Time {
	c, a, b := klcPair(prof)
	const iters = 4
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	c.Env.Go("send", func(p *sim.Proc) {
		src := a.Space().Alloc(bufN)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			a.SendTo(p, b.Addr(), src, size)
			p.Sleep(500 * sim.Microsecond)
		}
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		dst := b.Space().Alloc(bufN)
		for i := 0; i < iters; i++ {
			b.Recv(p, dst, bufN)
			warm = p.Now() - sendAt[i]
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return warm
}

func klcBandwidth(prof *hw.Profile, size, msgs int) float64 {
	c, a, b := klcPair(prof)
	var start, end sim.Time
	c.Env.Go("send", func(p *sim.Proc) {
		src := a.Space().Alloc(size)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			a.SendTo(p, b.Addr(), src, size)
		}
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		dst := b.Space().Alloc(size)
		for i := 0; i < msgs; i++ {
			b.Recv(p, dst, size)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}

// ----------------------------------------------------- AMII measurers

// amiiPair opens an active-message endpoint on each node of a 2-node
// cluster.
func amiiPair(prof *hw.Profile) (c *cluster.Cluster, a, b *amii.Endpoint) {
	c = newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: amii.NICConfig()})
	sys := amii.NewSystem(c)
	eps := openAll(c, 20*sim.Millisecond, []int{0, 1}, func(p *sim.Proc, nd *node.Node) (*amii.Endpoint, error) {
		return sys.Open(p, nd, nd.Kernel.Spawn(), 8)
	})
	return c, eps[0], eps[1]
}

func amiiPingPong(prof *hw.Profile, size int) sim.Time {
	c, a, b := amiiPair(prof)
	const iters = 4
	var rtt sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		b.SetHandler(1, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			b.Request(hp, src, 1, arg, data)
		})
		for {
			b.Poll(p)
		}
	})
	c.Env.Go("a", func(p *sim.Proc) {
		got := false
		a.SetHandler(1, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			got = true
		})
		payload := make([]byte, size)
		ping := func() {
			got = false
			a.Request(p, b.Addr(), 1, 0, payload)
			for !got {
				a.Poll(p)
			}
		}
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	return rtt / 2
}

func amiiBandwidth(prof *hw.Profile, total int) float64 {
	c, a, b := amiiPair(prof)
	received := 0
	var start, end sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		dst := b.Process().Space.Alloc(total)
		b.SetHandler(2, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			b.Node().Memcpy(hp, len(data))
			b.Process().Space.Write(dst+mem.VAddr(off), data)
			received += len(data)
		})
		for received < total {
			b.Poll(p)
		}
		end = p.Now()
	})
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(total)
		start = p.Now()
		a.Bulk(p, b.Addr(), 2, 0, va, total)
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(total, end-start)
}

// ------------------------------------------------------ BIP measurers

// bipConfig is a 2-node cluster running BIP's firmware on its profile;
// BIP is driven through the user-level library.
func bipConfig() cluster.Config {
	return cluster.Config{Nodes: 2, Profile: bip.Profile(), NIC: bip.NICConfig()}
}

// ------------------------------------------------------ MPI/PVM rigs

// eadiPair opens two eager-sized BCL ports (node 0 and node 1, or both
// on node 0 when intra) and wraps each in an EADI device: the shared
// base of the MPI and PVM rigs.
func eadiPair(prof *hw.Profile, intra bool) (*cluster.Cluster, [2]*eadi.Device) {
	c := newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: ibcl.DefaultNICConfig()})
	pts := openBCL(c, 50*sim.Millisecond, ibcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit}, 0, peerNode(intra))
	addrs := []ibcl.Addr{pts[0].Addr(), pts[1].Addr()}
	return c, [2]*eadi.Device{eadi.NewDevice(pts[0], 0, addrs), eadi.NewDevice(pts[1], 1, addrs)}
}

func mpiJob(prof *hw.Profile, intra bool) (*cluster.Cluster, [2]*mpi.Comm) {
	c, devs := eadiPair(prof, intra)
	return c, [2]*mpi.Comm{mpi.World(devs[0]), mpi.World(devs[1])}
}

func pvmJob(prof *hw.Profile, intra bool) (*cluster.Cluster, [2]*pvm.Task) {
	c, devs := eadiPair(prof, intra)
	return c, [2]*pvm.Task{pvm.NewTask(devs[0]), pvm.NewTask(devs[1])}
}

func mpiLatency(prof *hw.Profile, intra bool) sim.Time {
	c, comms := mpiJob(prof, intra)
	const iters = 8
	var rtt sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		s := comms[0].Device().Port().Process().Space.Alloc(8)
		r := comms[0].Device().Port().Process().Space.Alloc(8)
		comms[0].Send(p, s, 1, 1, 0)
		comms[0].Recv(p, r, 8, 1, 0)
		start := p.Now()
		for i := 0; i < iters; i++ {
			comms[0].Send(p, s, 1, 1, 0)
			comms[0].Recv(p, r, 8, 1, 0)
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		s := comms[1].Device().Port().Process().Space.Alloc(8)
		r := comms[1].Device().Port().Process().Space.Alloc(8)
		for i := 0; i < iters+1; i++ {
			comms[1].Recv(p, r, 8, 0, 0)
			comms[1].Send(p, s, 1, 0, 0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return rtt / 2
}

func mpiBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	c, comms := mpiJob(prof, intra)
	var start, end sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		va := comms[0].Device().Port().Process().Space.Alloc(size)
		comms[0].Send(p, va, size, 1, 0)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			comms[0].Send(p, va, size, 1, 0)
		}
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		va := comms[1].Device().Port().Process().Space.Alloc(size)
		comms[1].Recv(p, va, size, 0, 0)
		for i := 0; i < msgs; i++ {
			comms[1].Recv(p, va, size, 0, 0)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}

func pvmLatency(prof *hw.Profile, intra bool) sim.Time {
	c, tasks := pvmJob(prof, intra)
	const iters = 8
	var rtt sim.Time
	c.Env.Go("t0", func(p *sim.Proc) {
		ping := func() {
			tasks[0].InitSend(pvm.DataRaw).PackInt64(1)
			tasks[0].Send(p, pvm.Tid(1), 0)
			tasks[0].Recv(p, pvm.Tid(1), 0)
		}
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.Go("t1", func(p *sim.Proc) {
		for i := 0; i < iters+1; i++ {
			tasks[1].Recv(p, pvm.Tid(0), 0)
			tasks[1].InitSend(pvm.DataRaw).PackInt64(1)
			tasks[1].Send(p, pvm.Tid(0), 0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return rtt / 2
}

func pvmBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	c, tasks := pvmJob(prof, intra)
	var start, end sim.Time
	c.Env.Go("t0", func(p *sim.Proc) {
		va := tasks[0].Device().Port().Process().Space.Alloc(size)
		send := func() {
			tasks[0].InitSend(pvm.DataInPlace)
			tasks[0].SetInPlace(va, size)
			tasks[0].Send(p, pvm.Tid(1), 0)
		}
		send()
		start = p.Now()
		for i := 0; i < msgs; i++ {
			send()
		}
	})
	c.Env.Go("t1", func(p *sim.Proc) {
		va := tasks[1].Device().Port().Process().Space.Alloc(size)
		tasks[1].RecvInto(p, pvm.Tid(0), 0, va, size)
		for i := 0; i < msgs; i++ {
			tasks[1].RecvInto(p, pvm.Tid(0), 0, va, size)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}
