package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// The benchmark artifact is the machine-readable face of a Report: a
// schema'd JSON document holding the experiment's key metrics, a
// cluster-wide counter digest, the end-to-end latency percentiles and
// (for the profiler experiments) the attribution table and LogP fit.
// Artifacts are deterministic — the simulator is, every map is
// emitted in sorted key order, and floats are rounded to fixed
// precision — so a committed BENCH_<name>.json doubles as both a
// golden file and a regression baseline for `bclbench -check`.

// ArtifactSchema versions the JSON layout. Bump it when a field
// changes meaning; -check refuses to compare across versions.
const ArtifactSchema = "bcl-bench/v1"

// LatencyDigest summarizes the merged end-to-end message latency
// histogram (nic/msg_latency_ns across all nodes).
type LatencyDigest struct {
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P90Us float64 `json:"p90_us"`
	P99Us float64 `json:"p99_us"`
	// P999Us is the P99.9 tail — zero in baselines written before the
	// field existed, which Check treats as "don't compare".
	P999Us float64 `json:"p999_us,omitempty"`
	MaxUs  float64 `json:"max_us"`
}

// AttributionRow is one (node, layer, phase) row of the virtual-time
// profile, in microseconds of exclusive time.
type AttributionRow struct {
	Node  int     `json:"node"`
	Layer string  `json:"layer"`
	Phase string  `json:"phase"`
	Us    float64 `json:"us"`
	Count int     `json:"count"`
}

// LogPDigest is the fitted LogGP model.
type LogPDigest struct {
	GapUs         float64 `json:"g_us"`
	GNsPerByte    float64 `json:"G_ns_per_byte"`
	BandwidthMBps float64 `json:"fit_bw_mbps"`
}

// Artifact is one experiment's benchmark record.
type Artifact struct {
	Schema  string `json:"schema"`
	ID      string `json:"id"`
	Title   string `json:"title"`
	Summary string `json:"summary"`

	// Metrics are the experiment's key numbers (Report.Metrics).
	Metrics map[string]float64 `json:"metrics"`

	// Counters digests the registry snapshot: cluster-wide sums keyed
	// "layer/name".
	Counters map[string]float64 `json:"counters,omitempty"`

	Latency     *LatencyDigest   `json:"latency,omitempty"`
	LogP        *LogPDigest      `json:"logp,omitempty"`
	Attribution []AttributionRow `json:"attribution,omitempty"`
}

// GatedExperiments maps artifact names (BENCH_<name>.json) to the
// experiment ids the continuous-benchmark gate runs.
var GatedExperiments = []struct{ Name, ID string }{
	{"pingpong", "pingpong"},
	{"scale", "scale"},
	{"intrapath", "ablation-intrapath"},
	{"chaos", "chaos"},
	{"survival", "survival"},
	{"collectives", "collectives"},
	{"profile", "profile"},
	{"logp", "logp"},
	{"multitenant", "multitenant"},
	{"healthwatch", "healthwatch"},
	{"serve", "serve"},
	{"reqobs", "reqobs"},
}

// ArtifactFile returns the artifact filename for a gate entry name.
func ArtifactFile(name string) string { return "BENCH_" + name + ".json" }

// round6 fixes float metrics at micro precision so artifacts are
// byte-stable, and squashes non-finite values (JSON has no NaN/Inf).
func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

// FromReport builds the artifact for one report. The digest comes
// from the report's own snapshot — the same one the prose and the
// one-line summary were rendered from, never a second run.
func FromReport(r *Report) *Artifact {
	a := &Artifact{
		Schema:  ArtifactSchema,
		ID:      r.ID,
		Title:   r.Title,
		Summary: r.Summary,
		Metrics: make(map[string]float64, len(r.Metrics)),
	}
	for k, v := range r.Metrics {
		a.Metrics[k] = round6(v)
	}
	if r.Snap != nil {
		a.Counters = make(map[string]float64)
		for _, c := range r.Snap.Counters {
			a.Counters[c.Layer+"/"+c.Name] += float64(c.Value)
		}
		if h := r.Snap.MergedHist("nic", "msg_latency_ns"); h.Count > 0 {
			a.Latency = &LatencyDigest{
				Count:  h.Count,
				P50Us:  round6(float64(h.P50()) / 1000),
				P90Us:  round6(float64(h.P90()) / 1000),
				P99Us:  round6(float64(h.P99()) / 1000),
				P999Us: round6(float64(h.P999()) / 1000),
				MaxUs:  round6(float64(h.Max) / 1000),
			}
		}
	}
	if r.LogP != nil {
		a.LogP = &LogPDigest{
			GapUs:         round6(us(r.LogP.SmallG)),
			GNsPerByte:    round6(r.LogP.G),
			BandwidthMBps: round6(r.LogP.BandwidthMBps),
		}
	}
	if r.Attribution != nil {
		for _, row := range r.Attribution.Rows {
			a.Attribution = append(a.Attribution, AttributionRow{
				Node: row.Node, Layer: row.Layer, Phase: row.Phase,
				Us: round6(us(row.Time)), Count: row.Count,
			})
		}
	}
	return a
}

// Encode renders the artifact as stable JSON: encoding/json emits map
// keys sorted and struct fields in declaration order, so identical
// runs produce identical bytes.
func (a *Artifact) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeArtifact parses a committed baseline.
func DecodeArtifact(b []byte) (*Artifact, error) {
	a := &Artifact{}
	if err := json.Unmarshal(b, a); err != nil {
		return nil, err
	}
	return a, nil
}

// ------------------------------------------------- regression checking

// tolerance is one metric's acceptance band.
type tolerance struct {
	rel   float64 // relative band around the baseline value
	abs   float64 // absolute slack added on top
	exact bool    // must match bit-for-bit (correctness flags)
}

// exactMetrics are correctness indicators: any drift is a regression,
// however small.
var exactMetrics = map[string]bool{
	"deterministic":   true,
	"deadlocked":      true,
	"corrupt":         true,
	"byte_errors":     true,
	"registry_agrees": true,
	"finished":        true,
	// Multi-tenant correctness: every staged attack must be rejected,
	// teardown must unbind, and the QoS/backfill wins must hold.
	"security_rejects":    true,
	"teardown_ok":         true,
	"qos_beats_fifo":      true,
	"backfill_beats_fifo": true,
	// Survivability correctness: exactly-once delivery through crash +
	// corruption + gray chaos, the faults must actually have fired, and
	// the adaptive-RTO tail must strictly beat fixed backoff.
	"exactly_once":          true,
	"crc_drops_nonzero":     true,
	"nic_reboots_nonzero":   true,
	"adaptive_beats_fixed":  true,
	"gray_failover_nonzero": true,
	// Health-engine correctness: the clean phase must stay silent, the
	// fault phase must fire the expected rules, and the alert timeline
	// and bundle bytes must be identical across the double run.
	"clean_alerts":           true,
	"fired_crc_spike":        true,
	"fired_watchdog_trip":    true,
	"fired_rail_divergence":  true,
	"bundle_deterministic":   true,
	"timeline_deterministic": true,
	// Service-tier correctness: no half-applied transaction pair, no
	// monotonic-read violation, caches coherent at quiesce, the swarm
	// fully drained, and the chaos phase's faults actually exercised
	// the dedup/retransmit machinery.
	"atomicity_ok":        true,
	"linearizable_ok":     true,
	"coherent_caches":     true,
	"swarm_drained":       true,
	"dedup_nonzero":       true,
	"retrans_nonzero":     true,
	"txn_commits_nonzero": true,
	// Request-observability correctness: sampling must retain every
	// abort and SLO breach within budget, the hot-shard rule must fire
	// on the skewed phase only, and slow logs, exemplar sets and
	// sampling decisions must be byte-identical across double runs.
	"hot_rule_fired":           true,
	"hot_rule_silent_baseline": true,
	"bundle_has_slowlog":       true,
	"aborts_all_retained":      true,
	"slo_all_retained":         true,
	"chaos_aborts_nonzero":     true,
	"chaos_slo_nonzero":        true,
	"budget_respected":         true,
	"budget_dropped_nonzero":   true,
	"exemplars_nonzero":        true,
	"trace_cap_respected":      true,
	"trace_evictions_nonzero":  true,
	"slowlog_deterministic":    true,
	"exemplar_deterministic":   true,
	"sampling_deterministic":   true,
	"drained":                  true,
}

// tolFor picks the acceptance band for one metric.
func tolFor(name string) tolerance {
	if exactMetrics[name] {
		return tolerance{exact: true}
	}
	switch {
	case strings.HasSuffix(name, "_us"):
		// Latencies and overheads: 10% plus 50 ns of slack.
		return tolerance{rel: 0.10, abs: 0.05}
	case strings.HasSuffix(name, "_mbps"):
		return tolerance{rel: 0.10, abs: 0.5}
	case strings.HasSuffix(name, "_pct"):
		return tolerance{rel: 0.10, abs: 1.0}
	default:
		// Counts, ratios, fitted coefficients.
		return tolerance{rel: 0.10, abs: 0.5}
	}
}

// counterTol is the band for registry counter sums: event counts are
// deterministic but schedule-sensitive, so allow a wider band.
var counterTol = tolerance{rel: 0.20, abs: 2}

// checkOne compares one value against its baseline.
func checkOne(what string, fresh, base float64, tol tolerance) string {
	if tol.exact {
		if fresh != base {
			return fmt.Sprintf("%s: got %g, baseline %g (exact-match metric)", what, fresh, base)
		}
		return ""
	}
	band := tol.rel*math.Abs(base) + tol.abs
	if d := math.Abs(fresh - base); d > band {
		return fmt.Sprintf("%s: got %g, baseline %g (|delta| %.6g > band %.6g)", what, fresh, base, d, band)
	}
	return ""
}

// Check compares a fresh artifact against a committed baseline and
// returns the list of regressions (empty = pass). Metrics present in
// the baseline must exist in the fresh run and sit inside their
// tolerance band; new metrics in the fresh run are allowed (they
// become part of the baseline when it is regenerated).
func Check(fresh, base *Artifact) []string {
	var bad []string
	if fresh.Schema != base.Schema {
		return []string{fmt.Sprintf("schema: fresh %q vs baseline %q — regenerate baselines", fresh.Schema, base.Schema)}
	}
	if fresh.ID != base.ID {
		return []string{fmt.Sprintf("id: fresh %q vs baseline %q", fresh.ID, base.ID)}
	}
	names := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fv, ok := fresh.Metrics[k]
		if !ok {
			bad = append(bad, fmt.Sprintf("metric %s: missing from fresh run", k))
			continue
		}
		if msg := checkOne("metric "+k, fv, base.Metrics[k], tolFor(k)); msg != "" {
			bad = append(bad, msg)
		}
	}
	cnames := make([]string, 0, len(base.Counters))
	for k := range base.Counters {
		cnames = append(cnames, k)
	}
	sort.Strings(cnames)
	for _, k := range cnames {
		fv, ok := fresh.Counters[k]
		if !ok {
			bad = append(bad, fmt.Sprintf("counter %s: missing from fresh run", k))
			continue
		}
		if msg := checkOne("counter "+k, fv, base.Counters[k], counterTol); msg != "" {
			bad = append(bad, msg)
		}
	}
	if base.Latency != nil {
		if fresh.Latency == nil {
			bad = append(bad, "latency digest: missing from fresh run")
		} else {
			lt := tolerance{rel: 0.10, abs: 0.5}
			for _, c := range []struct {
				what        string
				fresh, base float64
			}{
				{"latency p50_us", fresh.Latency.P50Us, base.Latency.P50Us},
				{"latency p90_us", fresh.Latency.P90Us, base.Latency.P90Us},
				{"latency p99_us", fresh.Latency.P99Us, base.Latency.P99Us},
				{"latency max_us", fresh.Latency.MaxUs, base.Latency.MaxUs},
			} {
				if msg := checkOne(c.what, c.fresh, c.base, lt); msg != "" {
					bad = append(bad, msg)
				}
			}
			// Baselines written before the P99.9 field have it at zero;
			// only compare once the baseline carries a real value.
			if base.Latency.P999Us != 0 {
				if msg := checkOne("latency p999_us", fresh.Latency.P999Us, base.Latency.P999Us, lt); msg != "" {
					bad = append(bad, msg)
				}
			}
		}
	}
	if base.LogP != nil {
		if fresh.LogP == nil {
			bad = append(bad, "logp digest: missing from fresh run")
		} else {
			for _, c := range []struct {
				what        string
				fresh, base float64
			}{
				{"logp g_us", fresh.LogP.GapUs, base.LogP.GapUs},
				{"logp G_ns_per_byte", fresh.LogP.GNsPerByte, base.LogP.GNsPerByte},
				{"logp fit_bw_mbps", fresh.LogP.BandwidthMBps, base.LogP.BandwidthMBps},
			} {
				if msg := checkOne(c.what, c.fresh, c.base, tolerance{rel: 0.10, abs: 0.05}); msg != "" {
					bad = append(bad, msg)
				}
			}
		}
	}
	return bad
}
