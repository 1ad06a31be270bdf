package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineFlagValidation is the cross-CLI table test for -engine: every
// binary that registers the flag must reject a tier its campaign kind
// cannot run — analytic/auto on the non-grid kinds, unknown names
// anywhere — with the service's "params.engine" field-path error, before
// any simulation starts. Positive cases on the grid CLIs pin that valid
// tiers still parse and run.
func TestEngineFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries in -short mode")
	}
	dir := builtCLIs(t)

	cases := []struct {
		name    string
		cli     string
		args    []string
		wantErr string // "" = must succeed
	}{
		{"affinitysim measure rejects analytic", "affinitysim",
			[]string{"measure", "-engine", "analytic"}, "params.engine"},
		{"affinitysim characterize rejects auto", "affinitysim",
			[]string{"characterize", "-engine", "auto"}, "params.engine"},
		{"affinitysim extras rejects analytic", "affinitysim",
			[]string{"extras", "-engine", "analytic"}, "params.engine"},
		{"affinitysim trace rejects analytic", "affinitysim",
			[]string{"trace", "-engine", "analytic"}, "params.engine"},
		{"affinitysim compare rejects unknown tier", "affinitysim",
			[]string{"compare", "-engine", "bogus"}, "params.engine"},
		{"affinitysim compare accepts analytic", "affinitysim",
			[]string{"compare", "-engine", "analytic", "-fast", "-mix", "5", "-reps", "1"}, ""},
		{"measurepenalty rejects analytic", "measurepenalty",
			[]string{"-engine", "analytic"}, "params.engine"},
		{"measurepenalty rejects unknown tier", "measurepenalty",
			[]string{"-engine", "bogus"}, "params.engine"},
		{"policycompare rejects unknown tier", "policycompare",
			[]string{"-engine", "bogus"}, "params.engine"},
		{"policycompare accepts analytic", "policycompare",
			[]string{"-engine", "analytic", "-fast", "-mix", "5", "-reps", "1"}, ""},
		{"futuremodel rejects unknown tier", "futuremodel",
			[]string{"-engine", "bogus"}, "params.engine"},
		// The future pipeline's Table 1 (and all's characterization) is
		// always simulated, whatever the tier of its compare half.
		{"futuremodel accepts analytic", "futuremodel",
			[]string{"-engine", "analytic", "-fast", "-reps", "1", "-csv"}, ""},
		{"affinitysim future accepts analytic", "affinitysim",
			[]string{"future", "-engine", "analytic", "-fast", "-reps", "1", "-budget", "0.4"}, ""},
		{"affinitysim future accepts auto", "affinitysim",
			[]string{"future", "-engine", "auto", "-fast", "-reps", "1", "-budget", "0.4"}, ""},
		{"affinitysim all accepts analytic", "affinitysim",
			[]string{"all", "-engine", "analytic", "-fast", "-reps", "1", "-budget", "0.4"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(dir, tc.cli), tc.args...).CombinedOutput()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%s %v failed: %v\n%s", tc.cli, tc.args, err, out)
				}
				return
			}
			if err == nil {
				t.Fatalf("%s %v succeeded, want failure mentioning %q", tc.cli, tc.args, tc.wantErr)
			}
			if !strings.Contains(string(out), tc.wantErr) {
				t.Fatalf("%s %v error output %q missing %q", tc.cli, tc.args, out, tc.wantErr)
			}
		})
	}
}
