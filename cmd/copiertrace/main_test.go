package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestRunGolden pins the proxy scenario's exact timeline, stats line
// and -summary output.
func TestRunGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", true); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "copiertrace.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output diverges from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.String(), want)
	}
}
