// Command bclbench regenerates the paper's evaluation tables and
// figures from the simulated cluster, and runs the continuous
// benchmark gate against committed baselines.
//
// Usage:
//
//	bclbench -list             # show experiment ids
//	bclbench all               # run everything, in paper order
//	bclbench table1 fig7 ...   # run selected experiments
//	bclbench -metrics pingpong # append the registry snapshot
//	                           # (Prometheus text + JSON) to each report
//	bclbench -baseline         # (re)write baselines/BENCH_*.json
//	bclbench -check            # rerun the gated experiments, compare
//	                           # against baselines/, exit 1 on regression
//	bclbench -check -out dir   # also write the fresh artifacts to dir
//	bclbench -check -postmortem dir
//	                           # additionally write a bcl-postmortem/v1
//	                           # bundle per failing gate to dir
//	bclbench -watch            # replay the healthwatch fault phase as
//	                           # live bcltop frames (terminal "top" view)
//	bclbench -watch reqobs     # replay the reqobs hotkey phase instead:
//	                           # frames carry the sampled/dropped trace
//	                           # counters and the heavy-hitter line
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bcl/internal/bench"
	"bcl/internal/obs/health"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	seed := flag.Uint64("seed", 1, "fault/traffic-schedule seed for the seeded experiments (-list marks them)")
	metrics := flag.Bool("metrics", false, "print each experiment's metrics registry snapshot (text and JSON)")
	check := flag.Bool("check", false, "run the gated experiments and compare against committed baselines (exit 1 on regression)")
	baseline := flag.Bool("baseline", false, "run the gated experiments and (re)write the baselines")
	dir := flag.String("dir", "baselines", "baseline directory for -check / -baseline")
	out := flag.String("out", "", "also write fresh BENCH_<name>.json artifacts to this directory")
	watch := flag.Bool("watch", false, "replay the healthwatch fault phase (or the reqobs hotkey phase: -watch reqobs) as bcltop frames")
	post := flag.String("postmortem", "", "with -check: write POSTMORTEM_<name>.json bundles for failing gates to this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bclbench [-list] [-seed N] [-metrics] [-out dir] all | <experiment> ...\n")
		fmt.Fprintf(os.Stderr, "       bclbench [-check | -baseline] [-dir baselines] [-out dir]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(bench.IDs(), " "))
	}
	flag.Parse()
	if *list {
		for _, e := range bench.List() {
			var marks []string
			if len(e.Aliases) > 0 {
				marks = append(marks, "alias: "+strings.Join(e.Aliases, ", "))
			}
			if e.Seeded {
				marks = append(marks, "seeded: varies with -seed N")
			}
			if e.Gated {
				marks = append(marks, "gated: baselines/"+bench.ArtifactFile(artifactName(e.ID)))
			}
			suffix := ""
			if len(marks) > 0 {
				suffix = "  [" + strings.Join(marks, "; ") + "]"
			}
			fmt.Printf("%-22s %s%s\n", e.ID, e.Title, suffix)
		}
		fmt.Print(faultVocabulary)
		return
	}
	if *watch {
		frames := bench.HealthWatchFrames
		if flag.NArg() > 0 {
			switch flag.Arg(0) {
			case "reqobs", "reqtrace":
				frames = bench.ReqObsFrames
			case "healthwatch", "health":
			default:
				fmt.Fprintf(os.Stderr, "bclbench: -watch takes healthwatch or reqobs, not %q\n", flag.Arg(0))
				os.Exit(2)
			}
		}
		for i, f := range frames(*seed) {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(f)
		}
		return
	}
	if *check || *baseline {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runGate(*check, *dir, *out, *post, *seed))
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var reports []*bench.Report
	if len(args) == 1 && args[0] == "all" {
		reports = bench.All()
	} else {
		for _, id := range args {
			r := bench.ByIDSeeded(id, *seed)
			if r == nil {
				fmt.Fprintf(os.Stderr, "bclbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			reports = append(reports, r)
		}
	}
	for i, r := range reports {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.String())
		fmt.Println(r.Summary)
		if *out != "" {
			if err := writeArtifact(*out, artifactName(r.ID), r); err != nil {
				fmt.Fprintf(os.Stderr, "bclbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *metrics && r.Snap != nil {
			fmt.Println()
			fmt.Print(r.Snap.Text())
			js, err := r.Snap.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bclbench: metrics JSON: %v\n", err)
				os.Exit(1)
			}
			os.Stdout.Write(js)
			fmt.Println()
		}
	}
}

// artifactName maps an experiment id to the gate's artifact name (the
// id itself when the experiment is not in the gated set).
func artifactName(id string) string {
	for _, g := range bench.GatedExperiments {
		if g.ID == id {
			return g.Name
		}
	}
	return id
}

func writeArtifact(dir, name string, r *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := bench.FromReport(r).Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, bench.ArtifactFile(name)), b, 0o644)
}

// runGate runs every gated experiment once and either rewrites the
// baselines (check=false) or compares against them (check=true).
// Returns the process exit code.
func runGate(check bool, dir, out, post string, seed uint64) int {
	failed := false
	for _, g := range bench.GatedExperiments {
		r := bench.ByIDSeeded(g.ID, seed)
		if r == nil {
			fmt.Fprintf(os.Stderr, "bclbench: unknown gated experiment %q\n", g.ID)
			return 2
		}
		fresh := bench.FromReport(r)
		if out != "" {
			if err := writeArtifact(out, g.Name, r); err != nil {
				fmt.Fprintf(os.Stderr, "bclbench: %v\n", err)
				return 1
			}
		}
		path := filepath.Join(dir, bench.ArtifactFile(g.Name))
		if !check {
			if err := writeArtifact(dir, g.Name, r); err != nil {
				fmt.Fprintf(os.Stderr, "bclbench: %v\n", err)
				return 1
			}
			fmt.Printf("baseline %-12s -> %s (%d metrics)\n", g.Name, path, len(fresh.Metrics))
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bclbench: %s: %v (run `bclbench -baseline` to create it)\n", g.Name, err)
			failed = true
			writePostmortem(post, g.Name, r, []string{err.Error()})
			continue
		}
		base, err := bench.DecodeArtifact(raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bclbench: %s: bad baseline: %v\n", g.Name, err)
			failed = true
			writePostmortem(post, g.Name, r, []string{err.Error()})
			continue
		}
		bad := bench.Check(fresh, base)
		if len(bad) == 0 {
			fmt.Printf("check %-12s PASS (%d metrics within tolerance)\n", g.Name, len(base.Metrics))
			continue
		}
		failed = true
		fmt.Printf("check %-12s FAIL\n", g.Name)
		for _, m := range bad {
			fmt.Printf("  regression: %s\n", m)
		}
		writePostmortem(post, g.Name, r, bad)
	}
	if failed {
		return 1
	}
	return 0
}

// writePostmortem dumps a gate-failure evidence bundle (the failure
// reasons, the experiment's final registry snapshot, and its flight
// recorder) as POSTMORTEM_<name>.json, so CI can attach it to the
// failing run. A no-op when -postmortem was not given.
func writePostmortem(dir, name string, r *bench.Report, reasons []string) {
	if dir == "" {
		return
	}
	atNs := int64(0)
	if r.Snap != nil {
		atNs = int64(r.Snap.At)
	}
	b := health.GateBundle(name, atNs, reasons, r.Snap, r.Flight)
	data, err := b.Encode()
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "POSTMORTEM_"+name+".json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bclbench: postmortem %s: %v\n", name, err)
		return
	}
	fmt.Printf("  postmortem -> %s\n", filepath.Join(dir, "POSTMORTEM_"+name+".json"))
}

// faultVocabulary documents every fault injector the seeded
// experiments draw from (the authoritative description lives on
// fabric.Fault). -list prints it so the vocabulary is discoverable
// without reading source.
const faultVocabulary = `
fault injectors (chaos / survival schedules, seeded by -seed N):
  per-packet hooks        Fabric.SetFault: DropEvery(n), DuplicateEvery(n),
                          CorruptEvery(n); RandomLoss(p), RandomCorrupt(p)
                          (probabilistic, seeded RNG -> reproducible)
  outage windows          Network.LinkDown(node, from, to), AllDown(from, to):
                          crash-stop, every packet in the window is lost
  gray (slow) windows     Network.SlowLink(node, from, to, factor),
                          AllSlow(from, to, factor), hetero RailSlow(rail, ...):
                          latency multiplied, nothing lost -- degraded but alive
  firmware crashes        (*nic.NIC).CrashAt(t) / CrashFirmware(): MCP dies and
                          SRAM state is wiped until the kernel watchdog reboots
                          the NIC and replays its journal (cluster Watchdog: true)
`
