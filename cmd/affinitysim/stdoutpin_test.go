package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// stdoutPins holds the SHA-256 of the standard output of the campaign
// CLIs, recorded before they were moved onto Campaign.Run: rendering an
// exhibit from a served campaign must print exactly what the earlier
// whole-grid functions printed. Every command passes its -reps and -budget values
// explicitly, so the pins do not depend on how the flag defaults apply,
// and uses one replication wherever -stats totals float counters, so
// the fold order of per-run stats cannot move them.
var stdoutPins = []struct {
	cli    string
	args   []string
	sha256 string
}{
	{"affinitysim", []string{"measure", "-fast", "-budget", "0.4", "-stats"},
		"994db63068a208763b0a2d5a31d7d9d2e54009c3832346e7ab82bd60c52cb1ca"},
	{"affinitysim", []string{"compare", "-fast", "-reps", "1", "-mix", "5", "-timeshare", "-stats"},
		"581edb2c6d3675b8014d27fd68be817aec93c585f0e70a231243ddec2c1405ed"},
	{"affinitysim", []string{"future", "-fast", "-reps", "1", "-budget", "0.4"},
		"bfc13bbea0a2a0bcbff72c8e9262cca6263bd0c99abbe33eb947e2fa3f39233a"},
	{"policycompare", []string{"-fast", "-reps", "1"},
		"7857ae0406e4ad125839d818b498d661ce037b6388c6889ad095519a973be3d5"},
	{"measurepenalty", []string{"-budget", "0.4", "-detail"},
		"ebd13ac8d1cf7d2126368b228895c97e12f450cda0da5ddc5adaa5f675404972"},
	{"futuremodel", []string{"-fast", "-reps", "1", "-csv"},
		"97403d96c3a1760dd723938f31d0d3de10b344380b996a12280b2b57ef5e16a4"},
}

// TestCLIStdoutPinned builds the four campaign CLIs and checks each
// pinned command's stdout hash. Like the golden result bytes it runs
// only on amd64, where the pins were recorded.
func TestCLIStdoutPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("stdout pins are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	dir := builtCLIs(t)
	for _, pin := range stdoutPins {
		name := pin.cli + " " + strings.Join(pin.args, " ")
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, pin.cli), pin.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
				t.Errorf("%s stdout sha256 = %s, want %s\n%s", name, got, pin.sha256, out)
			}
		})
	}
}
