package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckRefusesOtherGOMAXPROCS pins the gate's parallelism rule: a run
// is compared against the ceilings only at the GOMAXPROCS the baseline was
// recorded at, and a baseline that does not record one is refused.
func TestCheckRefusesOtherGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	entry := `"BenchmarkX": {"iterations": 2, "ns_per_op": 100, "b_per_op": 1000, "allocs_per_op": 10}`
	base := write("base.json", `{`+entry+`, "_meta": {"gomaxprocs": "1"}}`)
	noMeta := write("nometa.json", `{`+entry+`}`)

	cases := []struct {
		name, baseline, input, wantErr string
	}{
		{"same parallelism", base, "BenchmarkX   2  100 ns/op  1000 B/op  10 allocs/op\n", ""},
		{"other parallelism", base, "BenchmarkX-2   2  100 ns/op  1000 B/op  10 allocs/op\n", "GOMAXPROCS=2"},
		{"no recorded parallelism", noMeta, "BenchmarkX   2  100 ns/op  1000 B/op  10 allocs/op\n", "no _meta.gomaxprocs"},
		{"over ceiling", base, "BenchmarkX   2  100 ns/op  9000 B/op  10 allocs/op\n", "ceilings exceeded"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := runCheck(c.baseline, strings.NewReader(c.input))
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}
