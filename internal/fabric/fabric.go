// Package fabric models system-area-network fabrics: packets, links,
// switches and routing. It provides the generic machinery — a wormhole
// (cut-through) link engine with per-link contention, topology/routing
// tables, and fault injection — used by the concrete topologies in the
// myrinet and mesh subpackages.
//
// A packet's head ripples through its route paying one hop latency per
// switch; each traversed link is occupied for the packet's full
// serialization time starting when the head reaches it, so bandwidth
// contention is modelled per link while latency stays cut-through.
package fabric

import (
	"fmt"
	"hash/crc32"

	"bcl/internal/hw"
	"bcl/internal/obs"
	"bcl/internal/sim"
	"bcl/internal/trace"
)

// PacketKind discriminates wire packets.
type PacketKind uint8

// Wire packet kinds.
const (
	KindData     PacketKind = iota // message payload fragment
	KindAck                        // cumulative acknowledgement
	KindNack                       // receiver cannot accept (no buffer); retransmit later
	KindRMARead                    // RMA read request (open channel)
	KindRMAWrite                   // RMA write payload fragment (open channel)
	KindProbe                      // peer-health probe (firmware liveness check)
	KindProbeAck                   // probe reply: the peer is reachable again
	KindCollMcast                  // collective: NIC-forwarded multicast fragment
	KindCollComb                   // collective: combine contribution toward the root
	KindResync                     // receiver asks a sender to resynchronize a flow (epoch + expected seq)
)

func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindNack:
		return "NACK"
	case KindRMARead:
		return "RMA-READ"
	case KindRMAWrite:
		return "RMA-WRITE"
	case KindProbe:
		return "PROBE"
	case KindProbeAck:
		return "PROBE-ACK"
	case KindCollMcast:
		return "COLL-MCAST"
	case KindCollComb:
		return "COLL-COMB"
	case KindResync:
		return "RESYNC"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HeaderBytes is the wire header size: route+kind+addressing+sequence.
const HeaderBytes = 24

// CRCBytes is the trailing checksum size.
const CRCBytes = 4

// Packet is one wire packet. Payload carries real bytes; CRC is a real
// CRC-32 so that injected corruption is genuinely detected (or missed,
// exactly as often as CRC-32 misses).
type Packet struct {
	Kind    PacketKind
	Src     int // source node id
	Dst     int // destination node id
	SrcPort int
	DstPort int
	Channel int

	// Trace is the causal trace id minted when the message entered the
	// stack (see trace.ID); it survives retransmission, duplication and
	// rail failover so one message's packets can be followed
	// end-to-end. Zero for untraced/control traffic.
	Trace uint64
	// Born is the virtual time the message entered the send path, for
	// end-to-end latency histograms at the receiver.
	Born sim.Time

	// Epoch is the sending NIC's firmware boot epoch, stamped on every
	// packet (data and control). A receiver seeing a higher epoch than
	// it recorded for the source knows the source firmware rebooted and
	// resets its flow state; a sender seeing a higher epoch on an
	// ACK/RESYNC knows the receiver rebooted and rewinds + replays its
	// in-flight messages. Zero means "unreliable mode / epoch-unaware".
	Epoch uint32

	MsgID   uint64 // sender-assigned message id
	Seq     uint64 // per-flow wire sequence number
	FragIdx int    // fragment index within the message
	Frags   int    // total fragments in the message
	Offset  int    // byte offset of this fragment in the message
	MsgLen  int    // total message length
	Tag     uint64 // upper-layer immediate word

	AckSeq  uint64 // for ACK/NACK: cumulative sequence
	Coll    CollHdr // collective header (KindCollMcast/KindCollComb only)
	Payload []byte
	CRC     uint32

	Sent sim.Time // injection timestamp (diagnostics)
}

// CollHdr is the collective sub-header carried by KindCollMcast and
// KindCollComb packets. It is a value field so clonePacket's shallow
// struct copy duplicates it safely.
type CollHdr struct {
	Ctx     int    // collective context id
	Seq     uint64 // per-context (combine) or per-origin (mcast) sequence
	Origin  int    // member index that injected the collective
	Mask    uint64 // combine: member-coverage bits accumulated so far
	Dead    uint64 // combine: members known dead along the way
	Op      uint8  // combine operator (coll.Op)
	DT      uint8  // combine element type (coll.DT)
	Release bool   // combine: root must multicast the result back down
}

// WireSize returns the serialized size in bytes.
func (p *Packet) WireSize() int { return HeaderBytes + len(p.Payload) + CRCBytes }

// Seal computes and stores the payload CRC.
func (p *Packet) Seal() { p.CRC = crc32.ChecksumIEEE(p.Payload) }

// Verify reports whether the payload matches the stored CRC.
func (p *Packet) Verify() bool { return crc32.ChecksumIEEE(p.Payload) == p.CRC }

// Verdict is a fault hook's decision about one packet.
type Verdict uint8

// Fault verdicts.
const (
	Deliver   Verdict = iota // forward the packet normally
	Drop                     // lose the packet in the fabric
	Duplicate                // deliver the packet twice (switch misbehaviour)
)

// Fault is a fault-injection hook. It may mutate the packet (corrupt
// bytes) and returns a verdict: deliver, drop, or duplicate.
//
// The full fault vocabulary of the simulator (also listed by
// `bclbench -list`) spans three mechanisms:
//
//   - Per-packet Fault hooks, installed with Fabric.SetFault: DropEvery,
//     DuplicateEvery, CorruptEvery (deterministic counters), RandomLoss
//     and RandomCorrupt (probabilistic, driven by the seeded env RNG so
//     runs stay reproducible).
//   - Virtual-time windows on the Network: LinkDown(node, from, to) and
//     AllDown(from, to) lose every packet touching the downed component
//     (crash-stop outages); SlowLink(node, from, to, factor) and
//     AllSlow(from, to, factor) multiply serialization and hop latency
//     without losing anything (gray failure / degraded rail).
//   - NIC-level injectors outside the fabric: (*nic.NIC).CrashAt(t) /
//     CrashFirmware() kill the MCP firmware at a virtual instant, wiping
//     all NIC SRAM state until the kernel watchdog reboots and replays
//     it.
//
// Every probabilistic injector draws from the simulation's seeded RNG:
// the same -seed reproduces the same fault schedule bit-for-bit.
type Fault func(env *sim.Env, pkt *Packet) Verdict

// DropEvery returns a Fault dropping every nth data packet.
func DropEvery(n int) Fault {
	count := 0
	return func(_ *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData {
			return Deliver
		}
		count++
		if count%n == 0 {
			return Drop
		}
		return Deliver
	}
}

// CorruptEvery returns a Fault flipping a byte in every nth data
// packet with a non-empty payload.
func CorruptEvery(n int) Fault {
	count := 0
	return func(_ *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData || len(pkt.Payload) == 0 {
			return Deliver
		}
		count++
		if count%n == 0 {
			pkt.Payload[0] ^= 0xff
		}
		return Deliver
	}
}

// DuplicateEvery returns a Fault duplicating every nth data packet:
// the fabric delivers two copies, exercising receiver-side dedup.
func DuplicateEvery(n int) Fault {
	count := 0
	return func(_ *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData {
			return Deliver
		}
		count++
		if count%n == 0 {
			return Duplicate
		}
		return Deliver
	}
}

// RandomCorrupt returns a Fault flipping one random payload bit in
// data packets with probability p, using the environment's
// deterministic RNG. A single bit flip is always detected by the
// per-fragment CRC-32, so the receiver drops the fragment (counted as
// crc_drops) and the go-back-N retransmit path heals it end-to-end.
func RandomCorrupt(p float64) Fault {
	return func(env *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData || len(pkt.Payload) == 0 {
			return Deliver
		}
		if env.Rand().Bool(p) {
			bit := env.Rand().Intn(len(pkt.Payload) * 8)
			pkt.Payload[bit/8] ^= 1 << (bit % 8)
		}
		return Deliver
	}
}

// RandomLoss returns a Fault dropping data packets with probability p,
// using the environment's deterministic RNG.
func RandomLoss(p float64) Fault {
	return func(env *sim.Env, pkt *Packet) Verdict {
		if pkt.Kind != KindData {
			return Deliver
		}
		if env.Rand().Bool(p) {
			return Drop
		}
		return Deliver
	}
}

// Endpoint is a fabric attachment point for one NIC: an inbound packet
// queue plus the outbound injection path.
type Endpoint struct {
	Node     int
	RX       *sim.Queue[*Packet]
	net      *Network
	injectFn func(p *sim.Proc, pkt *Packet)
}

// NewInjectedEndpoint builds an endpoint whose injection path is
// custom (composite fabrics use it to demultiplex across rails) and
// whose RX queue is supplied by the caller.
func NewInjectedEndpoint(node int, rx *sim.Queue[*Packet], inject func(p *sim.Proc, pkt *Packet)) *Endpoint {
	return &Endpoint{Node: node, RX: rx, injectFn: inject}
}

// Inject sends pkt into the fabric. The calling process (the NIC send
// engine) is occupied for the packet's serialization time on the
// injection link — this is what limits a single sender's bandwidth —
// after which the packet propagates through the route asynchronously.
func (ep *Endpoint) Inject(p *sim.Proc, pkt *Packet) {
	if ep.injectFn != nil {
		ep.injectFn(p, pkt)
		return
	}
	ep.net.inject(p, ep.Node, pkt)
}

// Fabric is a network connecting numbered nodes.
type Fabric interface {
	// Attach returns the endpoint for a node; each node has one NIC.
	Attach(node int) *Endpoint
	// Nodes returns the number of attachment points.
	Nodes() int
	// SetFault installs a fault-injection hook (nil clears it).
	SetFault(f Fault)
	// NodeDown reports whether the node's fabric attachment is inside
	// an outage window at the current virtual time.
	NodeDown(node int) bool
	// Name identifies the fabric type for traces and tables.
	Name() string
	// SetTracer attaches a span tracer: every packet's wire time (and
	// in-fabric drop) becomes a span on a "wire:<name>" row (nil
	// detaches).
	SetTracer(tr *trace.Tracer)
	// Collect publishes the fabric's packet counters into a metrics
	// snapshot (obs.Collector shape).
	Collect(set obs.Set)
}

// link is one directed physical channel.
type link struct {
	name string
	res  *sim.Resource
	bw   hw.Bps
	lat  sim.Time // propagation + switch cut-through latency at this hop
}

// outage is one closed-open virtual-time window [from, to) during
// which a component is down.
type outage struct{ from, to sim.Time }

func downAt(ws []outage, t sim.Time) bool {
	for _, w := range ws {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}

// slowdown is one closed-open virtual-time window [from, to) during
// which a component is degraded: alive, but serialization and hop
// latency are multiplied by factor (gray failure).
type slowdown struct {
	from, to sim.Time
	factor   int64
}

func slowAt(ws []slowdown, t sim.Time) int64 {
	f := int64(1)
	for _, w := range ws {
		if t >= w.from && t < w.to && w.factor > f {
			f = w.factor
		}
	}
	return f
}

// Network is the generic routed-fabric engine. Concrete topologies add
// links and routes, then expose it through the Fabric interface.
type Network struct {
	env       *sim.Env
	name      string
	endpoints []*Endpoint
	links     []*link
	routes    map[[2]int][]int // (src,dst) -> link ids, including injection link
	fault     Fault
	tr        *trace.Tracer

	nodeOut map[int][]outage // per-node link outage windows
	allOut  []outage         // whole-fabric (switch/rail) outage windows

	nodeSlow map[int][]slowdown // per-node degraded-link windows
	allSlow  []slowdown         // whole-fabric degraded windows

	delivered   uint64
	dropped     uint64
	duplicated  uint64
	outageDrops uint64
	slowedPkts  uint64

	// obs, when set, receives a per-rail wire_ns transit-time histogram
	// (injection to final-hop delivery) — the raw series behind the
	// health engine's rail-divergence rule.
	obs *obs.Obs
}

// NewNetwork returns an empty network for n nodes.
func NewNetwork(env *sim.Env, name string, n int) *Network {
	net := &Network{
		env:    env,
		name:   name,
		routes: make(map[[2]int][]int),
	}
	for i := 0; i < n; i++ {
		net.endpoints = append(net.endpoints, &Endpoint{
			Node: i,
			RX:   sim.NewQueue[*Packet](env, fmt.Sprintf("%s/rx%d", name, i), 0),
			net:  net,
		})
	}
	return net
}

// AddLink registers a directed link and returns its id.
func (n *Network) AddLink(name string, bw hw.Bps, latency sim.Time) int {
	id := len(n.links)
	n.links = append(n.links, &link{
		name: name,
		res:  sim.NewResource(n.env, name, 1),
		bw:   bw,
		lat:  latency,
	})
	return id
}

// SetRoute fixes the link sequence from src to dst. The first link is
// the injection link (NIC to first switch); the last delivers to the
// destination NIC.
func (n *Network) SetRoute(src, dst int, linkIDs []int) {
	n.routes[[2]int{src, dst}] = linkIDs
}

// Route returns the link ids from src to dst (nil if none).
func (n *Network) Route(src, dst int) []int { return n.routes[[2]int{src, dst}] }

// Attach implements Fabric.
func (n *Network) Attach(node int) *Endpoint { return n.endpoints[node] }

// Nodes implements Fabric.
func (n *Network) Nodes() int { return len(n.endpoints) }

// Name implements Fabric.
func (n *Network) Name() string { return n.name }

// SetFault implements Fabric.
func (n *Network) SetFault(f Fault) { n.fault = f }

// SetTracer implements Fabric: wire-time spans land on the
// "wire:<name>" row.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tr = tr }

// Collect implements Fabric, publishing packet counters under the
// "fabric:<name>" layer (node -1: link counters are cluster-wide).
func (n *Network) Collect(set obs.Set) {
	l := "fabric:" + n.name
	set(-1, l, "delivered", n.delivered)
	set(-1, l, "dropped", n.dropped)
	set(-1, l, "duplicated", n.duplicated)
	set(-1, l, "outage_drops", n.outageDrops)
	set(-1, l, "slow_pkts", n.slowedPkts)
}

// CollectGauges publishes per-node RX queue depths (packets delivered
// by the fabric but not yet consumed by the NIC's receive engine).
func (n *Network) CollectGauges(set obs.GaugeSet) {
	l := "fabric:" + n.name
	for _, ep := range n.endpoints {
		set(ep.Node, l, "rx_queued", int64(ep.RX.Len()))
	}
}

// SetObs attaches an observability bundle; routed deliveries then feed
// the cluster-wide "fabric:<name>"/wire_ns transit histogram.
func (n *Network) SetObs(o *obs.Obs) { n.obs = o }

// wireRow labels this fabric's trace row.
func (n *Network) wireRow() string { return "wire:" + n.name }

// traceWire records one wire span (delivery or drop) for a packet.
func (n *Network) traceWire(pkt *Packet, what string, start, end sim.Time) {
	if n.tr == nil {
		return
	}
	n.tr.AddFlow("wire: "+pkt.Kind.String()+what, n.wireRow(), pkt.Trace, start, end)
}

// LinkDown schedules an outage of node's fabric attachment over the
// virtual-time window [from, to): every packet entering or leaving the
// node in that window is lost in the fabric.
func (n *Network) LinkDown(node int, from, to sim.Time) {
	if n.nodeOut == nil {
		n.nodeOut = make(map[int][]outage)
	}
	n.nodeOut[node] = append(n.nodeOut[node], outage{from, to})
}

// AllDown schedules a whole-fabric outage (switch or rail failure)
// over [from, to): no packet survives the fabric in that window.
func (n *Network) AllDown(from, to sim.Time) {
	n.allOut = append(n.allOut, outage{from, to})
}

// NodeDown implements Fabric: true while node's attachment (or the
// whole fabric) is inside an outage window.
func (n *Network) NodeDown(node int) bool {
	now := n.env.Now()
	return downAt(n.allOut, now) || downAt(n.nodeOut[node], now)
}

// SlowLink schedules a gray failure of node's fabric attachment over
// [from, to): packets entering or leaving the node in that window pay
// factor times the normal serialization and hop latency, but nothing
// is lost. This models a degraded-but-alive rail (flaky transceiver,
// congested uplink) — the failure mode crash-stop outage windows
// cannot express.
func (n *Network) SlowLink(node int, from, to sim.Time, factor int) {
	if factor < 1 {
		factor = 1
	}
	if n.nodeSlow == nil {
		n.nodeSlow = make(map[int][]slowdown)
	}
	n.nodeSlow[node] = append(n.nodeSlow[node], slowdown{from, to, int64(factor)})
}

// AllSlow schedules a whole-fabric gray failure over [from, to): every
// packet pays factor times the normal wire time in that window.
func (n *Network) AllSlow(from, to sim.Time, factor int) {
	if factor < 1 {
		factor = 1
	}
	n.allSlow = append(n.allSlow, slowdown{from, to, int64(factor)})
}

// slowFactor returns the latency multiplier in effect right now for a
// packet between src and dst (1 when healthy). The largest applicable
// window wins; the factor is sampled once at injection time.
func (n *Network) slowFactor(src, dst int) int64 {
	now := n.env.Now()
	f := slowAt(n.allSlow, now)
	if nf := slowAt(n.nodeSlow[src], now); nf > f {
		f = nf
	}
	if nf := slowAt(n.nodeSlow[dst], now); nf > f {
		f = nf
	}
	return f
}

// Stats returns delivered and dropped packet counts.
func (n *Network) Stats() (delivered, dropped uint64) { return n.delivered, n.dropped }

// OutageDrops returns how many packets were lost to outage windows
// (a subset of the dropped count).
func (n *Network) OutageDrops() uint64 { return n.outageDrops }

// Duplicated returns how many packets the fault hook duplicated.
func (n *Network) Duplicated() uint64 { return n.duplicated }

// SlowedPkts returns how many packets traversed the fabric inside a
// gray-failure (slow) window.
func (n *Network) SlowedPkts() uint64 { return n.slowedPkts }

// clonePacket copies a packet (own payload) for duplicate delivery.
func clonePacket(pkt *Packet) *Packet {
	c := *pkt
	if len(pkt.Payload) > 0 {
		c.Payload = append([]byte(nil), pkt.Payload...)
	}
	return &c
}

// payInjection charges the caller the serialization time on the
// injection link even though the packet dies: the bits left the NIC.
func (n *Network) payInjection(p *sim.Proc, src int, pkt *Packet) {
	if route := n.routes[[2]int{src, pkt.Dst}]; len(route) > 0 {
		first := n.links[route[0]]
		first.res.Use(p, 1, hw.TransferTime(pkt.WireSize(), first.bw))
	}
}

// inject pushes pkt along its route. The caller holds the sending NIC;
// it is blocked for the serialization time on the injection link.
// Intra-node sends (src == dst, no route) deliver directly.
func (n *Network) inject(p *sim.Proc, src int, pkt *Packet) {
	pkt.Sent = n.env.Now()
	t0 := pkt.Sent
	dup := false
	if n.fault != nil {
		switch n.fault(n.env, pkt) {
		case Drop:
			n.dropped++
			n.payInjection(p, src, pkt)
			n.traceWire(pkt, " dropped (fault)", t0, n.env.Now())
			return
		case Duplicate:
			dup = true
			n.duplicated++
		}
	}
	route, ok := n.routes[[2]int{src, pkt.Dst}]
	if !ok {
		panic(fmt.Sprintf("fabric %s: no route %d->%d", n.name, src, pkt.Dst))
	}
	if len(route) == 0 { // loopback: never touches the fabric
		n.delivered++
		n.endpoints[pkt.Dst].RX.Post(pkt)
		if dup {
			n.delivered++
			n.endpoints[pkt.Dst].RX.Post(clonePacket(pkt))
		}
		return
	}
	// Outage: a packet leaving a downed attachment is lost at the first
	// hop (the sender still serializes it out).
	if n.NodeDown(src) {
		n.dropped++
		n.outageDrops++
		n.payInjection(p, src, pkt)
		n.traceWire(pkt, " dropped (outage)", t0, n.env.Now())
		return
	}

	// Gray-failure windows multiply wire time without losing anything;
	// the factor is sampled once, at injection.
	slow := n.slowFactor(src, pkt.Dst)
	if slow > 1 {
		n.slowedPkts++
	}

	// Serialize onto the injection link: the sender is occupied for the
	// full packet time (this is the per-NIC bandwidth limit).
	first := n.links[route[0]]
	txTime := hw.TransferTime(pkt.WireSize(), first.bw) * sim.Time(slow)
	first.res.Acquire(p, 1)
	p.Sleep(txTime)
	first.res.Release(1)

	// The head is now one hop in; ripple through the remaining links
	// asynchronously (cut-through). Each link is held for the packet's
	// serialization time on that link.
	n.env.Go(fmt.Sprintf("%s/pkt", n.name), func(fp *sim.Proc) {
		fp.Sleep(first.lat * sim.Time(slow))
		for _, id := range route[1:] {
			l := n.links[id]
			l.res.Acquire(fp, 1)
			t := hw.TransferTime(pkt.WireSize(), l.bw) * sim.Time(slow)
			// Hold the link for the tail to pass, but let the head
			// proceed after the hop latency.
			n.env.After(t, func() { l.res.Release(1) })
			fp.Sleep(l.lat * sim.Time(slow))
		}
		// Outage: a packet arriving at a downed attachment is lost on
		// the final hop.
		if n.NodeDown(pkt.Dst) {
			n.dropped++
			n.outageDrops++
			n.traceWire(pkt, " dropped (outage)", t0, fp.Now())
			return
		}
		// With equal link bandwidths the tail follows the head
		// continuously, so after the last hop latency the whole packet
		// has arrived (its serialization was paid once, at injection).
		n.delivered++
		n.traceWire(pkt, "", t0, fp.Now())
		n.obs.Observe(-1, "fabric:"+n.name, "wire_ns", int64(fp.Now()-t0))
		n.endpoints[pkt.Dst].RX.Post(pkt)
		if dup {
			n.delivered++
			n.endpoints[pkt.Dst].RX.Post(clonePacket(pkt))
		}
	})
}
