// Package hetero builds a heterogeneous system-area network: every
// node carries both a Myrinet adapter and an nwrc mesh adapter, and
// each (source, destination) pair is routed over one of the two
// physical networks by a configurable policy. This models the paper's
// heterogeneous-network claim (and its PM2 reference): because the NIC
// is transparent to user space under the semi-user-level architecture,
// "binary code written in BCL ... can run on any combination of
// networks supporting the BCL protocol" — a cluster of clusters whose
// halves use different fabrics works unmodified.
//
// The composite exposes the ordinary fabric.Fabric interface: packets
// injected at a node choose a rail by policy, and both rails' receive
// sides merge into the node's single logical RX queue, so the NIC
// firmware above is completely unaware that two networks exist.
package hetero

import (
	"fmt"

	"bcl/internal/fabric"
	"bcl/internal/fabric/mesh"
	"bcl/internal/fabric/myrinet"
	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// Policy picks a rail for a (src, dst) pair: 0 = Myrinet, 1 = mesh.
type Policy func(src, dst int) int

// SplitAt returns the policy of a "cluster of clusters": nodes below
// the split talk Myrinet among themselves, nodes at or above the split
// talk mesh among themselves, and cross-cluster traffic rides the
// Myrinet backbone.
func SplitAt(split int) Policy {
	return func(src, dst int) int {
		if src >= split && dst >= split {
			return 1
		}
		return 0
	}
}

// Rail is one physical network of the composite: a Fabric whose
// outages and gray-failure (slow) windows can be scheduled (both
// myrinet and mesh satisfy it through the embedded *fabric.Network).
type Rail interface {
	fabric.Fabric
	LinkDown(node int, from, to sim.Time)
	AllDown(from, to sim.Time)
	SlowLink(node int, from, to sim.Time, factor int)
	AllSlow(from, to sim.Time, factor int)
}

// Fabric is the composite network.
type Fabric struct {
	env       *sim.Env
	policy    Policy
	rails     [2]Rail
	endpoints []*fabric.Endpoint
	merged    []*sim.Queue[*fabric.Packet]

	// Obs, when set (the cluster wires it), records rail failovers in
	// the flight recorder.
	Obs *obs.Obs

	// prefer marks (src,dst) pairs the NIC has asked to steer onto the
	// non-policy rail because the policy rail is gray-degraded (alive
	// but slow). Outage failover still overrides the preference.
	prefer map[[2]int]bool

	// Stats.
	perRail    [2]uint64
	failovers  uint64
	graySteers uint64
}

// New builds the composite for n nodes.
func New(env *sim.Env, prof *hw.Profile, n int, policy Policy) *Fabric {
	if policy == nil {
		policy = SplitAt(n / 2)
	}
	f := &Fabric{env: env, policy: policy}
	f.rails[0] = myrinet.New(env, prof, n)
	f.rails[1] = mesh.New(env, prof, n)
	for i := 0; i < n; i++ {
		node := i
		merged := sim.NewQueue[*fabric.Packet](env, fmt.Sprintf("hetero/rx%d", node), 0)
		f.merged = append(f.merged, merged)
		// Pump both rails' receive queues into the merged queue; the
		// NIC above sees one stream (two physical ports feeding one
		// logical adapter, as dual-rail NICs do).
		for r := 0; r < 2; r++ {
			rx := f.rails[r].Attach(node).RX
			env.Go(fmt.Sprintf("hetero/pump%d.%d", node, r), func(p *sim.Proc) {
				for {
					merged.Send(p, rx.Recv(p))
				}
			})
		}
		f.endpoints = append(f.endpoints, f.newEndpoint(node))
	}
	return f
}

// newEndpoint builds the composite endpoint for a node. It reuses the
// merged RX queue created in New.
func (f *Fabric) newEndpoint(node int) *fabric.Endpoint {
	return fabric.NewInjectedEndpoint(node, f.merged[node], func(p *sim.Proc, pkt *fabric.Packet) {
		rail := f.policy(node, pkt.Dst)
		if rail < 0 || rail > 1 {
			panic(fmt.Sprintf("hetero: policy returned rail %d", rail))
		}
		// Gray-failure steering: the NIC's RTT estimator detected the
		// policy rail as degraded-but-alive and asked for the alternate.
		if f.prefer[[2]int{node, pkt.Dst}] && !f.railBlocked(1-rail, node, pkt.Dst) {
			rail = 1 - rail
			f.graySteers++
		}
		// Failover: if the chosen rail is inside an outage window for
		// either end of this packet and the other rail is not, reroute
		// onto the survivor. When the primary recovers, the policy's
		// verdict applies again automatically.
		if f.railBlocked(rail, node, pkt.Dst) && !f.railBlocked(1-rail, node, pkt.Dst) {
			rail = 1 - rail
			f.failovers++
			f.Obs.Event(f.env.Now(), node, "fabric", "rail-failover", pkt.Trace,
				fmt.Sprintf("dst=%d -> %s", pkt.Dst, f.rails[rail].Name()))
		}
		f.perRail[rail]++
		f.rails[rail].Attach(node).Inject(p, pkt)
	})
}

// railBlocked reports whether rail r cannot currently carry src->dst.
func (f *Fabric) railBlocked(r, src, dst int) bool {
	return f.rails[r].NodeDown(src) || f.rails[r].NodeDown(dst)
}

// Attach implements fabric.Fabric.
func (f *Fabric) Attach(node int) *fabric.Endpoint { return f.endpoints[node] }

// Nodes implements fabric.Fabric.
func (f *Fabric) Nodes() int { return len(f.endpoints) }

// Name implements fabric.Fabric.
func (f *Fabric) Name() string { return "hetero(myrinet+mesh)" }

// SetFault installs the hook on both rails.
func (f *Fabric) SetFault(hook fabric.Fault) {
	f.rails[0].SetFault(hook)
	f.rails[1].SetFault(hook)
}

// SetTracer attaches the tracer to both rails, so each physical
// network gets its own "wire:<name>" row.
func (f *Fabric) SetTracer(tr *trace.Tracer) {
	f.rails[0].SetTracer(tr)
	f.rails[1].SetTracer(tr)
}

// Collect publishes the composite's routing counters and forwards to
// both rails, so one snapshot covers the whole dual-rail fabric.
func (f *Fabric) Collect(set obs.Set) {
	set(-1, "fabric:hetero", "myrinet_pkts", f.perRail[0])
	set(-1, "fabric:hetero", "mesh_pkts", f.perRail[1])
	set(-1, "fabric:hetero", "failovers", f.failovers)
	set(-1, "fabric:hetero", "gray_steered", f.graySteers)
	f.rails[0].Collect(set)
	f.rails[1].Collect(set)
}

// CollectGauges publishes the composite's instantaneous state: the
// gray-steer preference count, per-node merged-queue depth, and both
// rails' RX queues.
func (f *Fabric) CollectGauges(set obs.GaugeSet) {
	set(-1, "fabric:hetero", "gray_preferred", int64(len(f.prefer)))
	for node, q := range f.merged {
		set(node, "fabric:hetero", "rx_queued", int64(q.Len()))
	}
	for r := 0; r < 2; r++ {
		if gc, ok := f.rails[r].(interface{ CollectGauges(obs.GaugeSet) }); ok {
			gc.CollectGauges(set)
		}
	}
}

// SetObs attaches the observability bundle: failovers and gray steers
// land in the flight recorder, and each rail feeds its own wire_ns
// transit histogram (the health engine's rail-divergence inputs).
func (f *Fabric) SetObs(o *obs.Obs) {
	f.Obs = o
	for r := 0; r < 2; r++ {
		if so, ok := f.rails[r].(interface{ SetObs(*obs.Obs) }); ok {
			so.SetObs(o)
		}
	}
}

// NodeDown implements fabric.Fabric: a node is down for the composite
// only when BOTH rails have lost it (otherwise failover still routes).
func (f *Fabric) NodeDown(node int) bool {
	return f.rails[0].NodeDown(node) && f.rails[1].NodeDown(node)
}

// Rail exposes one physical network (0 = Myrinet, 1 = mesh) so tests
// and the chaos harness can schedule rail-local outages.
func (f *Fabric) Rail(r int) Rail { return f.rails[r] }

// RailDown schedules a whole-rail outage over [from, to).
func (f *Fabric) RailDown(r int, from, to sim.Time) {
	f.rails[r].AllDown(from, to)
}

// RailCounts reports how many packets each rail carried.
func (f *Fabric) RailCounts() (myrinetPkts, meshPkts uint64) {
	return f.perRail[0], f.perRail[1]
}

// Failovers reports how many packets were rerouted off their policy
// rail because of an outage.
func (f *Fabric) Failovers() uint64 { return f.failovers }

// RailSlow schedules a whole-rail gray failure (latency multiplier)
// over [from, to).
func (f *Fabric) RailSlow(r int, from, to sim.Time, factor int) {
	f.rails[r].AllSlow(from, to, factor)
}

// PreferAlternate implements the NIC's gray-failure steering hook
// (nic.RailSteer): while prefer is set for (src, dst), packets between
// the pair ride the non-policy rail. The NIC's per-peer RTT estimator
// flips this when the smoothed RTT blows past the flow's baseline and
// clears it after a hold period to re-probe the primary.
func (f *Fabric) PreferAlternate(src, dst int, prefer bool) {
	if f.prefer == nil {
		f.prefer = make(map[[2]int]bool)
	}
	if prefer {
		f.prefer[[2]int{src, dst}] = true
	} else {
		delete(f.prefer, [2]int{src, dst})
	}
	f.Obs.Event(f.env.Now(), src, "fabric", "gray-steer", 0,
		fmt.Sprintf("dst=%d prefer-alternate=%v", dst, prefer))
}

// GraySteers reports how many packets were steered off their policy
// rail by gray-failure detection.
func (f *Fabric) GraySteers() uint64 { return f.graySteers }
