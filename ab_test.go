package repro

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestABDryRun runs ab.sh over recorded reports (testdata/ab: five pairs
// of commit-churn, the change side of pair 5 refused as INVALID), starting
// no server: the invalid pair is left out of both sides, each metric gets
// its median, quartiles, change and wins over the four valid pairs, and
// run.sh -compare judges the same pairs — a planted 32 % p50 regression
// worse, the 9 % lower RSS ok.
func TestABDryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark harness for run.sh -compare")
	}
	for _, tool := range []string{"bash", "jq", "awk"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("ab.sh needs %s: %v", tool, err)
		}
	}
	out, err := exec.Command("bash", "ab.sh", "-dry", "testdata/ab", "commit-churn").CombinedOutput()
	if err != nil {
		t.Fatalf("ab.sh -dry: %v\n%s", err, out)
	}
	for _, want := range []string{
		`(?m)^   rss_peak_mb +43\.65 \[43\.2, 43\.95\] +39\.75 \[39\.3, 40\.05\] +-8\.93% +4/4$`,
		`(?m)^   p50_ms +3\.15 \[3\.025, 3\.275\] +4\.15 \[4\.025, 4\.275\] +31\.75% +0/4$`,
		`(?m)^   setup_s .* 0\.00% +0/4$`,
		`(?m)^commit-churn +rss_peak_mb +43\.6500 +39\.7500 .* ok$`,
		`(?m)^commit-churn +p50_ms .* worse$`,
	} {
		if !regexp.MustCompile(want).Match(out) {
			t.Errorf("ab.sh -dry output has no line matching %s:\n%s", want, out)
		}
	}
	if regexp.MustCompile(`(?m)^(view-read|goal-read|mixed) `).Match(out) {
		t.Errorf("ab.sh -dry judged a workload it was not asked for:\n%s", out)
	}
}
