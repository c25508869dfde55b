package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Golden digests live in the repository's scripts/golden directory; they
// are read at run time, never copied.
const (
	goldenSweep = "scripts/golden/sweep-fig4-fig5.digest"
	goldenLarge = "scripts/golden/workload-large1024.digest"
)

// goldenLine is the union of the fields the golden digest lines carry.
type goldenLine struct {
	Sweep      string  `json:"sweep"`
	Workload   string  `json:"workload"`
	Controller string  `json:"controller"`
	Workers    int     `json:"workers"`
	ETF        float64 `json:"etf"`
	Periods    int     `json:"periods"`
	Digest     string  `json:"digest"`
}

// goldenDigest returns the digest of the first line in path that match
// accepts. Blank lines are skipped; a malformed line or no match is an
// error.
func goldenDigest(path string, match func(goldenLine) bool) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("golden digest: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var g goldenLine
		if err := json.Unmarshal([]byte(line), &g); err != nil {
			return "", fmt.Errorf("golden digest %s:%d: %w", path, n, err)
		}
		if match(g) {
			if len(g.Digest) != 16 {
				return "", fmt.Errorf("golden digest %s:%d: digest %q is not 16 hex digits", path, n, g.Digest)
			}
			return g.Digest, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("golden digest %s: %w", path, err)
	}
	return "", fmt.Errorf("golden digest %s: no matching line", path)
}

// fig5Golden selects the serial (workers=1) Figure 5 sweep line.
func fig5Golden(g goldenLine) bool { return g.Sweep == "fig5" && g.Workers == 1 }

// large1024Golden selects the workers=1 LARGE-1024 DEUCON line at etf 1
// over largePeriods periods.
func large1024Golden(g goldenLine) bool {
	return g.Workload == "LARGE-1024" && g.Controller == "DEUCON" && g.Workers == 1 &&
		g.ETF > 0.999 && g.ETF < 1.001 && g.Periods == largePeriods
}

// goldenCheck compares a run's digest with the golden one.
func goldenCheck(got, want string) check {
	return check{"digest matches golden", got == want, fmt.Sprintf("got %s, golden %s", got, want)}
}
