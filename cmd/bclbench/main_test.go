package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateRejectsOtherSeeds: the committed baselines are seed-1 runs,
// so -check or -baseline with any other seed is a usage error that
// neither compares nor writes anything.
func TestGateRejectsOtherSeeds(t *testing.T) {
	for _, mode := range []string{"-check", "-baseline"} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if got := run([]string{mode, "-seed", "2", "-dir", dir}, &stdout, &stderr); got != 2 {
			t.Errorf("%s -seed 2: exit %d, want 2", mode, got)
		}
		if !strings.Contains(stderr.String(), "seed 1 only") {
			t.Errorf("%s -seed 2: stderr %q does not explain the rejection", mode, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s -seed 2 ran the gate:\n%s", mode, stdout.String())
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
			t.Errorf("%s -seed 2 wrote %v", mode, files)
		}
	}
}

// TestExitStatus: a run whose reports all hold their invariants exits
// 0, unknown experiments and bad flags are usage errors.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"pingpong"}, 0},
		{[]string{"no-such-experiment"}, 2},
		{[]string{"-no-such-flag"}, 2},
		{nil, 2},
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("bclbench %v: exit %d, want %d\nstderr: %s", tc.args, got, tc.want, stderr.String())
		}
	}
}
