package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins both renderings byte for byte: the step tables
// are built from the obs event ring, so any change to event emission or
// read-back formatting on these paths shows up as a diff here.
func TestGoldenOutput(t *testing.T) {
	for _, path := range []string{"rpc", "device"} {
		var got bytes.Buffer
		if err := run(&got, path); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", path+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("tracer -path %s differs from testdata/%s.txt:\n%s", path, path, got.String())
		}
	}
}

func TestUnknownPath(t *testing.T) {
	if err := run(&bytes.Buffer{}, "disk"); err == nil {
		t.Fatal("unknown path accepted")
	}
}
