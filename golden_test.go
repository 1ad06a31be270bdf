package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

// goldenCampaigns pins the SHA-256 of the canonical result body of fast
// campaigns covering the simulator (bus, footprint model, scheduler), the
// future-machine pipeline and the exact-cache Table 1 path. The hashes were
// recorded before the bus and footprint hot paths were rewritten; a
// speedup must keep them, so any change in results — however small — fails
// here rather than being absorbed by a test that compares two runs of the
// same code.
var goldenCampaigns = []struct {
	name   string
	kind   string
	params experiments.CampaignParams
	sha256 string
}{
	{"compare-seed1", "compare",
		experiments.CampaignParams{Fast: true, Seed: 1},
		"d85dce7048fee3d256d15fe9307c8c6518a6283e549620c11f109bd0207a8701"},
	{"compare-seed12345", "compare",
		experiments.CampaignParams{Fast: true, Seed: 12345,
			Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri"}},
		"0af25e11491d088b9ffe74f308d4f10cbc93dafa0743d143d603d7d86f0d9b05"},
	{"futuresim-seed3", "futuresim",
		experiments.CampaignParams{Fast: true, Seed: 3},
		"bb079cdc004516cebaafebb62abc9d516da1261938ab171977d0d006cc84ef95"},
	{"future-seed4", "future",
		experiments.CampaignParams{Fast: true, Seed: 4},
		"b2960448bad6d9f474519fc4d7ab3d071e85c958750d99438dc8c23132e01a48"},
	{"table1-seed5", "table1",
		experiments.CampaignParams{Fast: true, Seed: 5},
		"14ecc16a86b670fedef3206de6747600b38b35f323711f1566c04ae3ffe6d9e9"},
}

// TestGoldenResultBytes checks the canonical body hashes. It runs only on
// amd64: Go may fuse a multiply and an add into one FMA instruction on other
// architectures (arm64, ppc64le, s390x), which rounds differently and so
// legitimately changes the low bits of simulated results.
func TestGoldenResultBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, g := range goldenCampaigns {
		t.Run(g.name, func(t *testing.T) {
			camp, ok := experiments.CampaignByKind(g.kind)
			if !ok {
				t.Fatalf("unknown campaign kind %q", g.kind)
			}
			res, err := camp.Run(context.Background(), g.params)
			if err != nil {
				t.Fatal(err)
			}
			body, err := report.CanonicalJSON(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != g.sha256 {
				t.Errorf("%s body sha256 = %s, want %s", g.name, got, g.sha256)
			}
		})
	}
}
