package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runCLI drives the full binary flow and returns stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("sbhunt %v exited %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// huntArgs is a small, fast hunt budget shared by the CLI tests.
var huntArgs = []string{"-seed", "42", "-gens", "2", "-pop", "8"}

func TestHuntLogDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full hunt in -short mode")
	}
	outSerial := runCLI(t, huntArgs...)
	outParallel := runCLI(t, append([]string{"-workers", "8"}, huntArgs...)...)
	if outSerial != outParallel {
		t.Errorf("stdout differs between -workers 1 and 8:\n%s\nvs\n%s", outSerial, outParallel)
	}
	if !strings.Contains(outSerial, "hunt seed=42 gens=2 pop=8") {
		t.Errorf("missing hunt header:\n%s", outSerial)
	}
	if !strings.Contains(outSerial, "hunt done evaluated=16") {
		t.Errorf("missing hunt summary:\n%s", outSerial)
	}
}

func TestHuntWritesAndReplaysCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full hunt in -short mode")
	}
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	// Seed 6 at this budget is the corpus-generation configuration
	// (DESIGN.md §14): testdata/corpus is exactly this run's output, file
	// for file. Neither the worker pool nor the cache state may leak into
	// the hunt log or the minimized genomes.
	gen := []string{"-seed", "6", "-gens", "6", "-pop", "16"}
	runHunt := func(corpus string, extra ...string) string {
		t.Helper()
		return runCLI(t, append(append(extra, gen...), "-out", filepath.Join(dir, corpus))...)
	}
	serial := runHunt("corpus1", "-workers", "1")
	cold := runHunt("corpus8", "-workers", "8", "-cache", cache)
	warm := runHunt("corpus8w", "-workers", "8", "-cache", cache)
	if serial != cold || cold != warm {
		t.Fatalf("hunt log differs across -workers 1, 8 cold, 8 warm:\n%s\nvs\n%s\nvs\n%s", serial, cold, warm)
	}
	files := readCorpus(t, filepath.Join(dir, "corpus1"))
	if len(files) < 3 {
		t.Fatalf("seed 6 found %d minimized counterexamples, want >= 3:\n%s", len(files), serial)
	}
	checkedIn := readCorpus(t, filepath.Join("..", "..", "testdata", "corpus"))
	for name, data := range files {
		if want, ok := checkedIn[name]; !ok {
			t.Errorf("seed 6 writes %s, which testdata/corpus lacks", name)
		} else if data != want {
			t.Errorf("seed 6 writes %s differently from testdata/corpus:\n%s\nvs checked in\n%s", name, data, want)
		}
	}
	for name := range checkedIn {
		if _, ok := files[name]; !ok {
			t.Errorf("testdata/corpus holds %s, which seed 6 no longer writes", name)
		}
	}
	if !reflect.DeepEqual(files, readCorpus(t, filepath.Join(dir, "corpus8"))) {
		t.Fatal("corpus files differ between -workers 1 and -workers 8")
	}
	replay := runCLI(t, "-replay", filepath.Join(dir, "corpus1"), "-workers", "8", "-cache", cache)
	if !strings.Contains(replay, "failed=0") || strings.Contains(replay, "GONE") {
		t.Errorf("fresh corpus replay failed:\n%s", replay)
	}
}

// readCorpus maps each file in a corpus directory to its contents.
func readCorpus(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

func TestReplayFailsOnEmptyCorpus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Error("replay of an empty corpus exited 0")
	}
}

func TestRejectsUnknownTierAndStrayArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tier", "galaxy"}, &stdout, &stderr); code == 0 {
		t.Error("unknown -tier exited 0")
	}
	stderr.Reset()
	if code := run([]string{"stray"}, &stdout, &stderr); code == 0 {
		t.Error("stray positional argument exited 0")
	}
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}
