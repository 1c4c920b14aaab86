package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/zkserve"
)

// TestMain lets a test run this binary as the daemon: invoked as
// "<test binary> zkserved <flags>", it runs main with those flags.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "zkserved" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGenRefusesExistingTable: -gen into a data directory that already
// holds the named table exits non-zero, says why, and leaves the table
// as it was.
func TestGenRefusesExistingTable(t *testing.T) {
	dir := t.TempDir()
	if err := zkserve.GenerateTable(dir, zkserve.TableSpec{Name: "demo", Rows: 2000, Cols: 2, BlockValues: 512, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	before := readFiles(t, filepath.Join(dir, "demo"))

	// A daemon that accepted the spec would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "zkserved", "-data", dir, "-gen", "demo:3000:3", "-addr", "127.0.0.1:0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() < 1 {
		t.Fatalf("zkserved -gen over an existing table: err %v, want a non-zero exit; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "already holds a table") {
		t.Fatalf("stderr does not say the table exists:\n%s", stderr.String())
	}
	after := readFiles(t, filepath.Join(dir, "demo"))
	if len(after) != len(before) {
		t.Fatalf("table holds %d files after the refused -gen, %d before", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("%s changed under the refused -gen", name)
		}
	}
}

func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}
