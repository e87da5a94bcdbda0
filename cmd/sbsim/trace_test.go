package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// traceCounts is the counter half of `sbsim -dur 300 -trace 8` on the
// defaults (quad, Mix1 x 4, smartbalance, seed 1).
const traceCounts = `trace: kernel events by kind
  spawn      8
  slice      275
  sleep      5
  wake       4
  migrate    7
  epoch      5
  core-idle  7
  core-busy  9
  context switches per core: c0=16 c1=58 c2=37 c3=164
  migration arrivals per core: c2=1 c3=6
last 8 of 320 events:
`

// TestTraceSections pins what -trace prints, with and without
// -telemetry: the per-kind, per-core switch and per-core migration
// counts read from the collector, then the last N raw events. The
// run's own report must not move when -trace is added.
func TestTraceSections(t *testing.T) {
	sbsim := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("sbsim %v exited %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	plain := sbsim("-dur", "300")
	traced := sbsim("-dur", "300", "-trace", "8")
	report, section, ok := strings.Cut(traced, "trace: ")
	if !ok {
		t.Fatalf("no trace section:\n%s", traced)
	}
	if report != plain {
		t.Errorf("-trace changed the run report:\n%s\nvs\n%s", report, plain)
	}
	section = "trace: " + section
	if !strings.HasPrefix(section, traceCounts) {
		t.Errorf("trace counts drifted:\ngot:\n%s\nwant prefix:\n%s", section, traceCounts)
	}
	events := strings.Split(strings.TrimSuffix(strings.TrimPrefix(section, traceCounts), "\n"), "\n")
	if len(events) != 8 {
		t.Fatalf("tail printed %d events, want 8:\n%s", len(events), section)
	}
	if last := events[7]; !strings.Contains(last, "300.000ms migrate") || !strings.Contains(last, "core=3 tid=4") {
		t.Errorf("last event = %q, want the 300 ms migration to core 3", last)
	}

	withTel := sbsim("-dur", "300", "-trace", "8", "-telemetry", filepath.Join(t.TempDir(), "run.jsonl"))
	if !strings.Contains(withTel, section) {
		t.Errorf("-telemetry changed the trace section:\n%s\nwant it to contain:\n%s", withTel, section)
	}
}
