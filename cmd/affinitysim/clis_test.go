package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// campaignCLIs are the binaries the cross-CLI tests drive.
var campaignCLIs = []string{"affinitysim", "measurepenalty", "policycompare", "futuremodel"}

var (
	clisOnce sync.Once
	clisDir  string
	clisErr  error
)

// builtCLIs builds the campaign CLIs once per test binary and returns the
// directory holding them; TestMain removes it.
func builtCLIs(t *testing.T) string {
	t.Helper()
	clisOnce.Do(func() {
		clisDir, clisErr = os.MkdirTemp("", "campaign-clis-")
		if clisErr != nil {
			return
		}
		for _, cli := range campaignCLIs {
			build := exec.Command("go", "build", "-o", filepath.Join(clisDir, cli), "../"+cli)
			if out, err := build.CombinedOutput(); err != nil {
				clisErr = fmt.Errorf("go build %s: %v\n%s", cli, err, out)
				return
			}
		}
	})
	if clisErr != nil {
		t.Fatal(clisErr)
	}
	return clisDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if clisDir != "" {
		os.RemoveAll(clisDir)
	}
	os.Exit(code)
}
