package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smartbalance"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("2,4,8")
	if err != nil || len(got) != 3 || got[0] != 2 || got[2] != 8 {
		t.Fatalf("parseInts: %v, %v", got, err)
	}
	got, err = parseInts(" 1 , 2 ")
	if err != nil || len(got) != 2 {
		t.Fatalf("whitespace: %v, %v", got, err)
	}
	if _, err := parseInts("2,x"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := parseInts(""); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestA13ReproducibleAndNeverBelowVanilla drives the fixed-seed A13
// fault ablation through the binary twice: faulty runs are exactly as
// reproducible as clean ones (stdout byte-identical once the host-timed
// "(regenerated in" line is dropped), and under a total counter
// blackout hardened SmartBalance lands on vanilla, never below it.
func TestA13ReproducibleAndNeverBelowVanilla(t *testing.T) {
	smartbench := func() string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", "A13", "-quick", "-dur", "400", "-threads", "2", "-seed", "7"}, &stdout, &stderr); code != 0 {
			t.Fatalf("smartbench exited %d: %s", code, stderr.String())
		}
		var kept []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if !strings.Contains(l, "(regenerated in") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	a, b := smartbench(), smartbench()
	if a != b {
		t.Fatalf("fixed-seed A13 reruns diverged:\n%s\nvs\n%s", a, b)
	}
	_, rest, ok := strings.Cut(a, "headline gain-at-full-dropout:")
	if !ok {
		t.Fatalf("gain-at-full-dropout headline missing:\n%s", a)
	}
	gain, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if gain < 0.999 {
		t.Errorf("blackout gain %gx puts SmartBalance below vanilla", gain)
	}
}

func TestBadFlagsExit(t *testing.T) {
	for args, want := range map[string]int{"-bogus": 2, "-run=Z9": 1, "-threads=x": 1} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{args}, &stdout, &stderr); code != want {
			t.Errorf("smartbench %s exited %d, want %d", args, code, want)
		}
	}
}

// TestCommittedResultsAreCurrent regenerates every artefact except F7
// (host-timed) at default options and requires each CSV to match the
// committed one in results/ byte for byte, so the committed tables
// cannot go stale. Regenerate them with
// `go run ./cmd/smartbench -csv results`.
func TestCommittedResultsAreCurrent(t *testing.T) {
	var ids []string
	for _, id := range smartbalance.ExperimentIDs() {
		if id != "F7" {
			ids = append(ids, id)
		}
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", strings.Join(ids, ","), "-csv", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("smartbench exited %d: %s", code, stderr.String())
	}
	for _, id := range ids {
		got, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", id+".csv"))
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("results/%s.csv is stale; regenerate with `go run ./cmd/smartbench -csv results`", id)
		}
	}
}
